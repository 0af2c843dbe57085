package topology

import (
	"math/rand/v2"
	"testing"
)

// BenchmarkRandomRegular1000x8 builds the paper's overlay.
func BenchmarkRandomRegular1000x8(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RandomRegular(1000, 8, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBFS1000 measures the estimator's inner loop.
func BenchmarkBFS1000(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	g, err := RandomRegular(1000, 8, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(0)
	}
}

// BenchmarkDiameter300 measures exact all-pairs diameter computation.
func BenchmarkDiameter300(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	g, err := RandomRegular(300, 6, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Diameter() < 0 {
			b.Fatal("disconnected")
		}
	}
}

// BenchmarkRandomRegular100k builds the overlay of the spy100k workload,
// the set-up path of every large simulated run.
func BenchmarkRandomRegular100k(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RandomRegular(100000, 8, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegularBuild1M builds flood1m's overlay, N=1M at degree 8, on
// a warm builder: the build's cost without its first allocations.
//
//	go test -run '^$' -bench RegularBuild1M -benchtime 5x ./internal/topology
func BenchmarkRegularBuild1M(b *testing.B) {
	var rb RegularBuilder
	rng := rand.New(rand.NewPCG(1, 2))
	if _, err := rb.Build(1000000, 8, rng); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rb.Build(1000000, 8, rng); err != nil {
			b.Fatal(err)
		}
	}
}
