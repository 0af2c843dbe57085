// Package netem is the unified network-condition subsystem: one Profile
// — a latency distribution, additive jitter, a per-link packet-loss
// rate, and a seeded churn schedule — defined once and applied
// identically to the discrete-event simulator (sim.Options.Netem) and
// the real transport (transport.Config.Shaper). It is the only way
// either runtime delays or drops a message, and the degraded-network
// scenario axis (experiment E15, `flexsim -netem`).
//
// One sampling mode. Every Dist is sampled from a 64-bit hash word (At),
// and Profile.Shaper makes every delay and drop decision a pure function
// of (seed, from, to, message type, per-link sequence number). Both
// runtimes consult the same function, so a shaped simulator run and a
// shaped transport cluster agree on exactly which messages die and how
// long each one is held — the foundation of the shaped parity scenarios
// (delivery-time distributions compared under tolerance, counts compared
// exactly) — and no decision depends on the order events execute in, so
// every profile with a positive MinDelay runs on a sharded event loop.
// A profile that never draws (Profile.FixedDelay) needs no hashing at
// all: the simulator stores its one delay.
//
// Churn is a seeded schedule of crash/rejoin events (Churn.Events)
// injected through the simulator's event loop at Network.Start; it has
// no real-transport counterpart (a wall-clock cluster cannot replay
// virtual-time crashes faithfully), so shaped parity scenarios reject
// churn profiles.
package netem

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/metrics"
	"repro/internal/proto"
)

// Dist is a one-way delay distribution, sampled from a hash word (At).
// Implementations must be deterministic: At is a pure function of the
// word.
type Dist interface {
	// At samples from a uniform 64-bit word.
	At(u uint64) time.Duration
	// Max bounds the distribution from above (conservatively for
	// unbounded tails) — quiescence pollers size their stillness
	// windows with it.
	Max() time.Duration
	// Floor bounds the distribution from below: no sample is ever
	// smaller. The sharded event loop derives its conservative lookahead
	// from it (Profile.MinDelay). For unbounded-below tails it is the
	// hash grid's bound (u01 keeps |z| ≤ ~8.3).
	Floor() time.Duration
	// String renders the distribution in ParseDist syntax.
	String() string
}

// Const delays every message by a fixed amount.
type Const time.Duration

// At implements Dist.
func (c Const) At(uint64) time.Duration { return time.Duration(c) }

// Max implements Dist.
func (c Const) Max() time.Duration { return time.Duration(c) }

// Floor implements Dist.
func (c Const) Floor() time.Duration { return time.Duration(c) }

// String implements Dist.
func (c Const) String() string { return time.Duration(c).String() }

// Uniform draws delays uniformly from [Min, Hi].
type Uniform struct {
	Min, Hi time.Duration
}

// At implements Dist: the word is scaled into the span by fixed-point
// multiplication (unbiased up to 2⁻⁶⁴, and branch-free).
func (u Uniform) At(w uint64) time.Duration {
	if u.Hi <= u.Min {
		return u.Min
	}
	span := uint64(u.Hi-u.Min) + 1
	hi, _ := bits.Mul64(w, span)
	return u.Min + time.Duration(hi)
}

// Max implements Dist.
func (u Uniform) Max() time.Duration { return max(u.Min, u.Hi) }

// Floor implements Dist.
func (u Uniform) Floor() time.Duration { return min(u.Min, u.Hi) }

// String implements Dist.
func (u Uniform) String() string {
	return fmt.Sprintf("%s..%s", u.Min, u.Hi)
}

// LogNormal is the heavy-tailed delay model measurement studies fit to
// wide-area paths: ln(delay/Median) ~ N(0, Sigma²). Sigma ≈ 0.3–0.7
// covers typical internet paths.
type LogNormal struct {
	Median time.Duration
	Sigma  float64
}

// At implements Dist.
func (l LogNormal) At(w uint64) time.Duration {
	d := time.Duration(float64(l.Median) * math.Exp(l.Sigma*invNorm(u01(w))))
	if d < 0 { // exp overflow on absurd sigma
		return l.Max()
	}
	return d
}

// Max implements Dist: the u01 grid keeps |z| below ~8.3, so the tail is
// bounded by Median·e^(8.3·Sigma).
func (l LogNormal) Max() time.Duration {
	d := time.Duration(float64(l.Median) * math.Exp(8.3*l.Sigma))
	if d < 0 {
		return time.Duration(math.MaxInt64)
	}
	return d
}

// Floor implements Dist: the u01 grid keeps |z| below ~8.3, so samples
// never fall under Median·e^(−8.3·Sigma) — a small but strictly positive
// bound for any positive median.
func (l LogNormal) Floor() time.Duration {
	return time.Duration(float64(l.Median) * math.Exp(-8.3*l.Sigma))
}

// String implements Dist.
func (l LogNormal) String() string {
	return fmt.Sprintf("lognormal:%s:%g", l.Median, l.Sigma)
}

// Empirical samples a measured delay table: the sorted Values slice is
// treated as evenly spaced quantiles and sampled with linear
// interpolation — the ethp2psim-style "replay a latency measurement"
// model.
type Empirical struct {
	Values []time.Duration // ascending; at least one entry
}

// At implements Dist.
func (e Empirical) At(w uint64) time.Duration {
	return metrics.DurationQuantile(e.Values, u01(w))
}

// Max implements Dist.
func (e Empirical) Max() time.Duration {
	if len(e.Values) == 0 {
		return 0
	}
	return e.Values[len(e.Values)-1]
}

// Floor implements Dist.
func (e Empirical) Floor() time.Duration {
	if len(e.Values) == 0 {
		return 0
	}
	return e.Values[0]
}

// String implements Dist.
func (e Empirical) String() string {
	s := "emp:"
	for i, v := range e.Values {
		if i > 0 {
			s += "/"
		}
		s += v.String()
	}
	return s
}

// maxDelayBound caps each delay distribution's upper bound (mirroring
// the churn-timing cap) so summed delays never overflow time.Duration.
const maxDelayBound = 100 * time.Hour

// Profile is one named set of network conditions.
type Profile struct {
	// Name labels the profile in tables and flags.
	Name string
	// Latency is the base one-way link delay (nil: zero).
	Latency Dist
	// Jitter is an additional delay drawn per message (nil: none).
	Jitter Dist
	// Loss is the per-message drop probability on every link, in [0,1).
	Loss float64
	// Churn is the seeded crash/rejoin schedule (simulator only).
	Churn Churn
}

// Validate rejects profiles that would measure something other than
// what they declare.
func (p Profile) Validate() error {
	// The inverted comparison rejects NaN too: a NaN loss passes both
	// `< 0` and `>= 1` checks yet yields an always-drop shaper.
	if !(p.Loss >= 0 && p.Loss < 1) {
		return fmt.Errorf("netem: loss %v outside [0,1)", p.Loss)
	}
	if d, ok := p.Latency.(Empirical); ok {
		if err := validateEmpirical(d); err != nil {
			return err
		}
	}
	if d, ok := p.Jitter.(Empirical); ok {
		if err := validateEmpirical(d); err != nil {
			return err
		}
	}
	for _, d := range []Dist{p.Latency, p.Jitter} {
		if d == nil {
			continue
		}
		if d.Max() < 0 {
			return fmt.Errorf("netem: negative delay in %s", d)
		}
		// The cap keeps Latency.Max+Jitter.Max (Decide's delay sum and
		// MaxDelay's settle bound) clear of Duration overflow — and
		// rejects lognormal tails whose Max saturated to MaxInt64.
		if d.Max() > maxDelayBound {
			return fmt.Errorf("netem: delay bound of %s beyond %v", d, maxDelayBound)
		}
		if l, ok := d.(LogNormal); ok {
			// Max() saturates overflow to MaxInt64, so the generic
			// negative-delay check above cannot see a negative median.
			if l.Median < 0 {
				return fmt.Errorf("netem: negative lognormal median %s", l.Median)
			}
			if !(l.Sigma >= 0 && l.Sigma <= 4) {
				return fmt.Errorf("netem: lognormal sigma %g outside [0,4]", l.Sigma)
			}
		}
		if u, ok := d.(Uniform); ok && (u.Min < 0 || u.Hi < u.Min) {
			return fmt.Errorf("netem: uniform range %s invalid", u)
		}
	}
	return p.Churn.validate()
}

func validateEmpirical(e Empirical) error {
	if len(e.Values) == 0 {
		return fmt.Errorf("netem: empirical distribution with no values")
	}
	for i, v := range e.Values {
		if v < 0 {
			return fmt.Errorf("netem: negative empirical delay %s", v)
		}
		if i > 0 && v < e.Values[i-1] {
			return fmt.Errorf("netem: empirical values not ascending at %s", v)
		}
	}
	return nil
}

// MaxDelay bounds one shaped hold: latency plus jitter worst case.
func (p Profile) MaxDelay() time.Duration {
	var d time.Duration
	if p.Latency != nil {
		d += p.Latency.Max()
	}
	if p.Jitter != nil {
		d += p.Jitter.Max()
	}
	return d
}

// MinDelay bounds one shaped hold from below: no decision ever holds a
// message for less. This is the conservative lookahead the
// sharded event loop advances under — a cross-shard message sent at time
// t can only arrive at t+MinDelay or later.
func (p Profile) MinDelay() time.Duration {
	var d time.Duration
	if p.Latency != nil {
		d += p.Latency.Floor()
	}
	if p.Jitter != nil {
		d += p.Jitter.Floor()
	}
	return d
}

// FixedDelay reports whether every link decision of the profile is the
// same: no loss, and latency and jitter each constant or absent (churn
// is not a link decision and is allowed). The duration is MinDelay,
// which for such a profile is that one delay. A simulator given one
// stores the delay and never counts link sequences or hashes; anything
// else goes through Shaper.Decide.
func (p Profile) FixedDelay() (time.Duration, bool) {
	drawFree := func(d Dist) bool {
		if d == nil {
			return true
		}
		_, ok := d.(Const)
		return ok
	}
	return p.MinDelay(), p.Loss == 0 && drawFree(p.Latency) && drawFree(p.Jitter)
}

// Shaper makes the link decisions for one (profile, seed) pair:
// Decide is a pure function, so the simulator and the transport — and
// any number of Shaper values built from the same inputs — agree on
// every decision without sharing state. Sequence numbers are the
// caller's, counted per (directed link, message type): the per-type
// stream split is what keeps a multi-protocol link comparable across
// runtimes — the interleaving of two different message types on one
// link (an ACK racing a round barrier, say) can legitimately flip
// between a virtual-time and a wall-clock run, and a shared per-link
// counter would then hand the same message different decision words on
// the two sides. Keyed per (link, type), each message's word depends
// only on its position within its own type's FIFO stream, which the
// protocol's round structure pins down on both runtimes.
type Shaper struct {
	lossThr  uint64 // 53-bit loss threshold
	dropKey  uint64 // the drop word's seed half
	lat, jit draw
}

// draw is one delay term of a decision: a distribution with the seed half
// of its words, mix(seed^purpose), or — for a Const, whose At ignores
// the word, and for an absent term — the one delay, drawing no word.
type draw struct {
	dist    Dist // nil: fixed
	key     uint64
	purpose uint64
	fixed   time.Duration
}

func newDraw(d Dist, seed, purpose uint64) draw {
	switch c := d.(type) {
	case nil:
		return draw{}
	case Const:
		return draw{fixed: time.Duration(c)}
	}
	return draw{dist: d, key: mix(seed ^ purpose), purpose: purpose}
}

// at returns the term's delay on one link for one decision word.
func (d *draw) at(link, w uint64) time.Duration {
	if d.dist == nil {
		return d.fixed
	}
	return d.dist.At(keyedWord(d.key, link, w, d.purpose))
}

// Shaper derives the decision function for a run seed.
func (p Profile) Shaper(seed uint64) Shaper {
	return Shaper{
		lossThr: uint64(p.Loss * (1 << 53)),
		dropKey: mix(seed ^ purposeDrop),
		lat:     newDraw(p.Latency, seed, purposeLat),
		jit:     newDraw(p.Jitter, seed, purposeJit),
	}
}

// Hash stream purposes: distinct constants per decision so loss, delay
// and jitter draws are independent.
const (
	purposeDrop  = 0x9e3779b97f4a7c15
	purposeLat   = 0xbf58476d1ce4e5b9
	purposeJit   = 0x94d049bb133111eb
	purposeChurn = 0xd6e8feb86659fd93
)

// Decide returns the hold delay and drop verdict for the seq-th message
// of wire type tp on the directed link from→to. The type is folded into
// the decision word (alongside the link and the per-type sequence), so
// distinct types on one link draw from independent streams.
func (s *Shaper) Decide(from, to proto.NodeID, tp proto.MsgType, seq uint64) (delay time.Duration, drop bool) {
	link := uint64(uint32(from))<<32 | uint64(uint32(to))
	// Sequence numbers are per-type message counts: far below 2^48 in
	// any feasible run, so the fold is collision-free.
	w := seq | uint64(tp)<<48
	if s.lossThr > 0 && keyedWord(s.dropKey, link, w, purposeDrop)>>11 < s.lossThr {
		return 0, true
	}
	return s.lat.at(link, w) + s.jit.at(link, w), false
}

// mix is the splitmix64 finalizer — the avalanche all link words flow
// through.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// linkWord derives the decision word for one (seed, link, seq, purpose)
// tuple.
func linkWord(seed, link, seq, purpose uint64) uint64 {
	return keyedWord(mix(seed^purpose), link, seq, purpose)
}

// keyedWord is linkWord with its seed half, mix(seed^purpose), given.
func keyedWord(key, link, seq, purpose uint64) uint64 {
	return mix(key ^ mix(link+purpose) ^ seq)
}

// u01 maps a word onto the open interval (0,1) on a 2⁻⁵³ grid — never
// exactly 0 or 1, so inverse-CDF sampling stays finite.
func u01(w uint64) float64 {
	return (float64(w>>11) + 0.5) / (1 << 53)
}

// invNorm is the standard normal quantile function (Acklam's rational
// approximation, |rel err| < 1.2e-9) — enough for delay sampling, with
// no dependency beyond math.
func invNorm(p float64) float64 {
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	var a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	var b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	var c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	var d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
