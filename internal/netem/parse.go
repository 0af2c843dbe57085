package netem

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Named presets — the conditions experiments declare in one place and
// the vocabulary of the `flexsim -netem` flag. Loopback/LAN/Metro/WAN
// are the constant-latency settings the experiment suite already ran
// on; the impaired presets open the degraded-network axis.
var (
	// Loopback is the parity twin's in-process setting.
	Loopback = Profile{Name: "loopback", Latency: Const(time.Millisecond)}
	// LAN is a single-switch network.
	LAN = Profile{Name: "lan", Latency: Const(5 * time.Millisecond)}
	// Metro is a city-scale path.
	Metro = Profile{Name: "metro", Latency: Const(20 * time.Millisecond)}
	// WAN is the paper's wide-area setting (50 ms per hop).
	WAN = Profile{Name: "wan", Latency: Const(50 * time.Millisecond)}
	// WANJitter is the jittered wide-area setting of the E4 timing
	// attack: per-hop U(25ms, 75ms).
	WANJitter = Profile{Name: "wan-jitter", Latency: Uniform{Min: 25 * time.Millisecond, Hi: 75 * time.Millisecond}}
	// Lossy is a wide-area path shedding 5% of messages.
	Lossy = Profile{Name: "lossy", Latency: Const(50 * time.Millisecond), Loss: 0.05}
	// Flaky is a badly degraded path: heavy jitter and 10% loss.
	Flaky = Profile{
		Name:    "flaky",
		Latency: Const(50 * time.Millisecond),
		Jitter:  Uniform{Hi: 50 * time.Millisecond},
		Loss:    0.10,
	}
	// Mobile is a heavy-tailed cellular path: log-normal latency,
	// moderate jitter, 2% loss.
	Mobile = Profile{
		Name:    "mobile",
		Latency: LogNormal{Median: 80 * time.Millisecond, Sigma: 0.5},
		Jitter:  Uniform{Hi: 30 * time.Millisecond},
		Loss:    0.02,
	}
	// Churny is a wide-area network where 20% of nodes crash for 2s
	// during the run.
	Churny = Profile{
		Name:    "churny",
		Latency: Const(50 * time.Millisecond),
		Churn:   Churn{Fraction: 0.2, Start: time.Second, Down: 2 * time.Second, Period: 10 * time.Second, Cycles: 1},
	}
)

// Presets returns the named profiles in stable order.
func Presets() []Profile {
	return []Profile{Loopback, LAN, Metro, WAN, WANJitter, Lossy, Flaky, Mobile, Churny}
}

// preset resolves a preset by name.
func preset(name string) (Profile, bool) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// String renders the profile in canonical ParseProfile syntax; the
// round trip ParseProfile(p.String()) reproduces p (fuzzed by
// FuzzParseProfile).
func (p Profile) String() string {
	var parts []string
	if p.Name != "" {
		parts = append(parts, "name="+p.Name)
	}
	if p.Latency != nil {
		parts = append(parts, "lat="+p.Latency.String())
	}
	if p.Jitter != nil {
		parts = append(parts, "jitter="+p.Jitter.String())
	}
	if p.Loss > 0 {
		parts = append(parts, "loss="+strconv.FormatFloat(p.Loss, 'g', -1, 64))
	}
	if p.Churn.Enabled() {
		c := p.Churn
		parts = append(parts, "churn="+strconv.FormatFloat(c.Fraction, 'g', -1, 64))
		if c.Start > 0 {
			parts = append(parts, "start="+c.Start.String())
		}
		if c.Down > 0 {
			parts = append(parts, "down="+c.Down.String())
		}
		if c.Period > 0 {
			parts = append(parts, "period="+c.Period.String())
		}
		if c.Cycles > 0 {
			parts = append(parts, "cycles="+strconv.Itoa(c.Cycles))
		}
	}
	if len(parts) == 0 {
		return "name="
	}
	return strings.Join(parts, ",")
}

// ParseProfile parses a profile spec: either a preset name ("wan",
// "lossy", …), or a comma-separated key=value list, or a preset
// followed by overrides —
//
//	wan
//	lossy,loss=0.08
//	lat=20ms,jitter=10ms,loss=0.05
//	lat=25ms..75ms
//	lat=lognormal:80ms:0.5,churn=0.2,down=2s
//	lat=emp:10ms/20ms/45ms/90ms
//
// A bare duration as jitter means U(0, d). The result is validated.
func ParseProfile(spec string) (Profile, error) {
	var p Profile
	items := strings.Split(spec, ",")
	for i, item := range items {
		item = strings.TrimSpace(item)
		if item == "" {
			return p, fmt.Errorf("netem: empty item in spec %q", spec)
		}
		key, val, hasEq := strings.Cut(item, "=")
		if !hasEq {
			if i != 0 {
				return p, fmt.Errorf("netem: preset name %q must come first in %q", item, spec)
			}
			base, ok := preset(item)
			if !ok {
				return p, fmt.Errorf("netem: unknown preset %q (have %s)", item, PresetNames("|"))
			}
			p = base
			continue
		}
		var err error
		switch key {
		case "name":
			p.Name = val
		case "lat":
			p.Latency, err = ParseDist(val)
		case "jitter":
			p.Jitter, err = parseJitter(val)
		case "loss":
			p.Loss, err = strconv.ParseFloat(val, 64)
		case "churn":
			p.Churn.Fraction, err = strconv.ParseFloat(val, 64)
		case "start":
			p.Churn.Start, err = time.ParseDuration(val)
		case "down":
			p.Churn.Down, err = time.ParseDuration(val)
		case "period":
			p.Churn.Period, err = time.ParseDuration(val)
		case "cycles":
			p.Churn.Cycles, err = strconv.Atoi(val)
		default:
			return p, fmt.Errorf("netem: unknown key %q in %q", key, spec)
		}
		if err != nil {
			return p, fmt.Errorf("netem: %s=%s: %w", key, val, err)
		}
	}
	if err := p.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// ParseDist parses distribution syntax: "50ms" (constant),
// "25ms..75ms" (uniform), "lognormal:<median>:<sigma>", or
// "emp:<d>/<d>/…" (empirical quantile table; values are sorted).
func ParseDist(s string) (Dist, error) {
	switch {
	case strings.HasPrefix(s, "lognormal:"):
		rest := strings.TrimPrefix(s, "lognormal:")
		medS, sigS, ok := strings.Cut(rest, ":")
		if !ok {
			return nil, fmt.Errorf("want lognormal:<median>:<sigma>")
		}
		med, err := time.ParseDuration(medS)
		if err != nil {
			return nil, err
		}
		sigma, err := strconv.ParseFloat(sigS, 64)
		if err != nil {
			return nil, err
		}
		return LogNormal{Median: med, Sigma: sigma}, nil
	case strings.HasPrefix(s, "emp:"):
		var vals []time.Duration
		for _, part := range strings.Split(strings.TrimPrefix(s, "emp:"), "/") {
			v, err := time.ParseDuration(part)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return Empirical{Values: vals}, nil
	case strings.Contains(s, ".."):
		loS, hiS, _ := strings.Cut(s, "..")
		lo, err := time.ParseDuration(loS)
		if err != nil {
			return nil, err
		}
		hi, err := time.ParseDuration(hiS)
		if err != nil {
			return nil, err
		}
		return Uniform{Min: lo, Hi: hi}, nil
	default:
		d, err := time.ParseDuration(s)
		if err != nil {
			return nil, err
		}
		return Const(d), nil
	}
}

// parseJitter parses jitter syntax: full ParseDist grammar, with a bare
// duration shorthand meaning U(0, d).
func parseJitter(s string) (Dist, error) {
	d, err := ParseDist(s)
	if err != nil {
		return nil, err
	}
	if c, ok := d.(Const); ok {
		return Uniform{Hi: time.Duration(c)}, nil
	}
	return d, nil
}

// PresetNames renders the preset vocabulary joined by sep — the one
// formatter parse errors and CLI usage text share.
func PresetNames(sep string) string {
	names := make([]string, 0, len(Presets()))
	for _, p := range Presets() {
		names = append(names, p.Name)
	}
	return strings.Join(names, sep)
}
