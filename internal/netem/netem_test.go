package netem

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/proto"
)

// TestDistDeterminism pins every distribution's sampling: At must be a
// pure function of the word and stay inside [Floor, Max].
func TestDistDeterminism(t *testing.T) {
	dists := []Dist{
		Const(50 * time.Millisecond),
		Uniform{Min: 25 * time.Millisecond, Hi: 75 * time.Millisecond},
		LogNormal{Median: 80 * time.Millisecond, Sigma: 0.5},
		Empirical{Values: []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 45 * time.Millisecond, 90 * time.Millisecond}},
	}
	for _, d := range dists {
		words := rand.New(rand.NewPCG(7, 9))
		for i := 0; i < 1000; i++ {
			w := words.Uint64()
			x, y := d.At(w), d.At(w)
			if x != y {
				t.Fatalf("%s: not pure at %#x: %v vs %v", d, w, x, y)
			}
			if x < d.Floor() || x > d.Max() {
				t.Fatalf("%s: sample %v outside [%v, %v]", d, x, d.Floor(), d.Max())
			}
		}
	}
}

// TestShaperDeterminism requires two shapers built from the same
// (profile, seed) — as the simulator and the transport build them — to
// agree on every decision, and differently seeded shapers to disagree
// somewhere.
func TestShaperDeterminism(t *testing.T) {
	p := Profile{Latency: Const(20 * time.Millisecond), Jitter: Uniform{Hi: 10 * time.Millisecond}, Loss: 0.1}
	a, b := p.Shaper(42), p.Shaper(42)
	other := p.Shaper(43)
	var diverged, typeDiverged bool
	for from := proto.NodeID(0); from < 8; from++ {
		for to := proto.NodeID(0); to < 8; to++ {
			for seq := uint64(0); seq < 64; seq++ {
				d1, k1 := a.Decide(from, to, 0x0100, seq)
				d2, k2 := b.Decide(from, to, 0x0100, seq)
				if d1 != d2 || k1 != k2 {
					t.Fatalf("equal shapers disagree at (%d,%d,%d)", from, to, seq)
				}
				if d3, k3 := other.Decide(from, to, 0x0100, seq); d3 != d1 || k3 != k1 {
					diverged = true
				}
				if d4, k4 := a.Decide(from, to, 0x0301, seq); d4 != d1 || k4 != k1 {
					typeDiverged = true // distinct types draw independent streams
				}
				if !k1 && (d1 < 20*time.Millisecond || d1 > 30*time.Millisecond) {
					t.Fatalf("delay %v outside latency+jitter bounds", d1)
				}
			}
		}
	}
	if !diverged {
		t.Error("reseeding the shaper changed nothing — decisions are not seed-keyed")
	}
	if !typeDiverged {
		t.Error("changing the message type changed nothing — decisions are not stream-keyed per type")
	}
}

// TestShaperLossRate checks the loss hash actually sheds at the
// configured rate (within sampling noise over 100k decisions).
func TestShaperLossRate(t *testing.T) {
	for _, loss := range []float64{0.01, 0.05, 0.25} {
		s := Profile{Loss: loss}.Shaper(11)
		drops := 0
		const trials = 100000
		for seq := uint64(0); seq < trials; seq++ {
			if _, drop := s.Decide(1, 2, 0x0100, seq); drop {
				drops++
			}
		}
		got := float64(drops) / trials
		if math.Abs(got-loss) > 0.01 {
			t.Errorf("loss %v: observed rate %v", loss, got)
		}
	}
}

// TestLogNormalShape sanity-checks the inverse-CDF sampler: the median
// of samples must sit near the configured median.
func TestLogNormalShape(t *testing.T) {
	l := LogNormal{Median: 80 * time.Millisecond, Sigma: 0.5}
	rng := rand.New(rand.NewPCG(1, 2))
	below := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if l.At(rng.Uint64()) < l.Median {
			below++
		}
	}
	if frac := float64(below) / trials; math.Abs(frac-0.5) > 0.02 {
		t.Errorf("median miscentred: %.3f of samples below Median", frac)
	}
	// invNorm round-trip at known points.
	for _, c := range []struct{ p, z float64 }{{0.5, 0}, {0.975, 1.959964}, {0.025, -1.959964}} {
		if got := invNorm(c.p); math.Abs(got-c.z) > 1e-4 {
			t.Errorf("invNorm(%v) = %v, want %v", c.p, got, c.z)
		}
	}
}

// TestChurnSchedule pins schedule determinism, bounds, and the
// fraction/cycle semantics.
func TestChurnSchedule(t *testing.T) {
	c := Churn{Fraction: 0.25, Start: time.Second, Down: 2 * time.Second, Period: 10 * time.Second, Cycles: 2}
	a := c.Events(1000, 7)
	b := c.Events(1000, 7)
	if len(a) != len(b) {
		t.Fatalf("schedule not deterministic: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	churners := len(a) / (2 * c.Cycles)
	if churners < 200 || churners > 300 {
		t.Errorf("%d churners selected of 1000 at fraction 0.25", churners)
	}
	downs := make(map[proto.NodeID]int)
	for i, ev := range a {
		if i > 0 && ev.At < a[i-1].At {
			t.Fatal("events not time-sorted")
		}
		if ev.At < c.Start {
			t.Errorf("event at %v before Start %v", ev.At, c.Start)
		}
		if !ev.Up {
			downs[ev.Node]++
		}
	}
	for id, n := range downs {
		if n != c.Cycles {
			t.Errorf("node %d crashes %d times, want %d", id, n, c.Cycles)
		}
	}
	if len(Churn{}.Events(100, 1)) != 0 {
		t.Error("disabled churn produced events")
	}
	if other := c.Events(1000, 8); len(other) == len(a) && eventsEqual(other, a) {
		t.Error("reseeding churn changed nothing")
	}
}

func eventsEqual(a, b []ChurnEvent) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPresetsValid requires every preset to pass its own validation and
// carry a unique, parseable name.
func TestPresetsValid(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Presets() {
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate preset name %s", p.Name)
		}
		seen[p.Name] = true
		got, err := ParseProfile(p.Name)
		if err != nil {
			t.Errorf("preset %s does not parse: %v", p.Name, err)
		} else if got.String() != p.String() {
			t.Errorf("preset %s round-trips to %s", p, got)
		}
	}
}

// TestParseProfile covers the spec grammar and its error paths.
func TestParseProfile(t *testing.T) {
	good := []string{
		"wan",
		"lossy,loss=0.08",
		"lat=20ms,jitter=10ms,loss=0.05",
		"lat=25ms..75ms",
		"lat=lognormal:80ms:0.5,churn=0.2,down=2s,period=30s,cycles=2",
		"lat=emp:10ms/20ms/45ms/90ms",
		"name=custom,lat=1ms",
	}
	for _, spec := range good {
		p, err := ParseProfile(spec)
		if err != nil {
			t.Errorf("ParseProfile(%q): %v", spec, err)
			continue
		}
		again, err := ParseProfile(p.String())
		if err != nil {
			t.Errorf("round trip of %q (%q): %v", spec, p, err)
		} else if again.String() != p.String() {
			t.Errorf("round trip of %q drifted: %q vs %q", spec, p, again)
		}
	}
	bad := []string{
		"", "nosuchpreset", "loss=1.5", "loss=-0.1", "lat=bogus",
		"wan,wan", "lat=emp:", "churn=2", "lat=lognormal:80ms:9",
		"lat=-5ms", "cycles=-1", "frob=1",
		// NaN slips past naive `< 0 || >= 1` range checks, and a
		// negative lognormal median past the Max()-based delay check
		// (Max saturates its overflow guard to MaxInt64).
		"loss=nan", "churn=nan", "lat=lognormal:80ms:nan",
		"lat=lognormal:-80ms:0.5", "jitter=lognormal:-1ms:0.5",
		// Unbounded delays would overflow the Latency+Jitter sum in
		// Shaper.Decide and Profile.MaxDelay.
		"lat=1500000h", "lat=200h,jitter=1ms..1500000h", "lat=lognormal:1h:4",
	}
	for _, spec := range bad {
		if _, err := ParseProfile(spec); err == nil {
			t.Errorf("ParseProfile(%q) accepted", spec)
		}
	}
}

// TestFixedDelay pins the one predicate that picks the simulator's send
// case: a profile is fixed-delay exactly when it never draws — no loss,
// latency and jitter constant or absent; churn is not a link decision.
// Every preset, fixed or not, has a positive floor: the lookahead that
// lets it run sharded.
func TestFixedDelay(t *testing.T) {
	for _, tc := range []struct {
		p     Profile
		delay time.Duration
		fixed bool
	}{
		{WAN, 50 * time.Millisecond, true},
		{Profile{}, 0, true},
		{Profile{Latency: Const(20 * time.Millisecond), Jitter: Const(5 * time.Millisecond), Churn: Churn{Fraction: 0.2}}, 25 * time.Millisecond, true},
		{WANJitter, 25 * time.Millisecond, false},
		{Profile{Latency: Const(50 * time.Millisecond), Jitter: Uniform{Hi: 20 * time.Millisecond}}, 50 * time.Millisecond, false},
		{Lossy, Lossy.MinDelay(), false},
	} {
		if d, ok := tc.p.FixedDelay(); d != tc.delay || ok != tc.fixed {
			t.Errorf("%s.FixedDelay() = %v, %v; want %v, %v", tc.p, d, ok, tc.delay, tc.fixed)
		}
	}
	for _, p := range Presets() {
		if p.MinDelay() <= 0 {
			t.Errorf("preset %s has no positive minimum delay and would clamp -shards to one loop", p.Name)
		}
	}
}

// TestDecideAllocs: the per-send link decision and the heaviest sampler
// it draws from allocate nothing, since every shaped send in the
// simulator runs them.
func TestDecideAllocs(t *testing.T) {
	s := Flaky.Shaper(42)
	l := LogNormal{Median: 80 * time.Millisecond, Sigma: 0.5}
	var seq uint64
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Shaper.Decide", func() { seq++; _, _ = s.Decide(3, 7, 0x0100, seq) }},
		{"LogNormal.At", func() { seq++; _ = l.At(seq * 0x9e3779b97f4a7c15) }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != 0 {
			t.Errorf("%s allocates %v times, want 0", tc.name, got)
		}
	}
}

// oracleDecide is Shaper.Decide as it read before the shaper kept each
// purpose's seed half and stopped drawing a word for a constant delay,
// kept verbatim with the hashing it called: the definition every
// decision must reproduce bit for bit.
func oracleDecide(p Profile, seed uint64, from, to proto.NodeID, tp proto.MsgType, seq uint64) (delay time.Duration, drop bool) {
	lossThr := uint64(p.Loss * (1 << 53))
	link := uint64(uint32(from))<<32 | uint64(uint32(to))
	w := seq | uint64(tp)<<48
	if lossThr > 0 && oracleLinkWord(seed, link, w, purposeDrop)>>11 < lossThr {
		return 0, true
	}
	if p.Latency != nil {
		delay = p.Latency.At(oracleLinkWord(seed, link, w, purposeLat))
	}
	if p.Jitter != nil {
		delay += p.Jitter.At(oracleLinkWord(seed, link, w, purposeJit))
	}
	return delay, false
}

func oracleMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func oracleLinkWord(seed, link, seq, purpose uint64) uint64 {
	return oracleMix(oracleMix(seed^purpose) ^ oracleMix(link+purpose) ^ seq)
}

// TestDecideMatchesOracle holds Shaper.Decide to oracleDecide over random
// (seed, from, to, type, seq) for every latency distribution, each with
// no jitter, a drawn jitter and a constant one, with and without loss.
func TestDecideMatchesOracle(t *testing.T) {
	lats := []Dist{
		Const(50 * time.Millisecond),
		Uniform{Min: 25 * time.Millisecond, Hi: 75 * time.Millisecond},
		LogNormal{Median: 80 * time.Millisecond, Sigma: 0.5},
		Empirical{Values: []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 45 * time.Millisecond, 90 * time.Millisecond}},
		nil,
	}
	jitters := []Dist{nil, Uniform{Hi: 20 * time.Millisecond}, Const(3 * time.Millisecond)}
	rng := rand.New(rand.NewPCG(38, 1))
	for _, lat := range lats {
		for _, jit := range jitters {
			for _, loss := range []float64{0, 0.05, 0.5} {
				p := Profile{Latency: lat, Jitter: jit, Loss: loss}
				seed := rng.Uint64()
				s := p.Shaper(seed)
				drops := 0
				for i := 0; i < 2000; i++ {
					from, to := proto.NodeID(rng.Int32()), proto.NodeID(rng.Int32())
					if i%4 == 0 { // small IDs and sequences, as a run has them
						from, to = proto.NodeID(rng.IntN(1000)), proto.NodeID(rng.IntN(1000))
					}
					tp := proto.MsgType(rng.Uint32())
					seq := rng.Uint64() >> (16 + rng.IntN(48))
					d, drop := s.Decide(from, to, tp, seq)
					wd, wdrop := oracleDecide(p, seed, from, to, tp, seq)
					if d != wd || drop != wdrop {
						t.Fatalf("%+v seed %#x: Decide(%d, %d, %#x, %d) = %v, %t; oracle %v, %t",
							p, seed, from, to, tp, seq, d, drop, wd, wdrop)
					}
					if drop {
						drops++
					}
				}
				if (loss > 0) != (drops > 0) {
					t.Fatalf("%+v: %d drops in 2000 decisions", p, drops)
				}
			}
		}
	}
}
