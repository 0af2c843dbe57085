package netem

import (
	"math/rand/v2"
	"testing"
	"time"
)

// BenchmarkShaperDecide prices the per-message cost of the link
// decision path — it sits on the simulator's delivery hot path for
// every shaped run (E15, parity), so it must stay in the
// few-nanoseconds class.
func BenchmarkShaperDecide(b *testing.B) {
	s := Flaky.Shaper(42)
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		d, drop := s.Decide(3, 7, 0x0100, uint64(i))
		if !drop {
			sink += d
		}
	}
	_ = sink
}

// BenchmarkLogNormalAt prices the heavy-tailed sampler (inverse normal
// CDF + exp), the most expensive distribution in the set.
func BenchmarkLogNormalAt(b *testing.B) {
	l := LogNormal{Median: 80 * time.Millisecond, Sigma: 0.5}
	rng := rand.New(rand.NewPCG(1, 2))
	words := make([]uint64, 4096)
	for i := range words {
		words[i] = rng.Uint64()
	}
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		sink += l.At(words[i&4095])
	}
	_ = sink
}

// BenchmarkChurnEvents prices schedule expansion at simulation scale.
func BenchmarkChurnEvents(b *testing.B) {
	c := Churn{Fraction: 0.2, Start: time.Second, Down: 2 * time.Second, Period: 10 * time.Second, Cycles: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if evs := c.Events(10000, uint64(i+1)); len(evs) == 0 {
			b.Fatal("empty schedule")
		}
	}
}
