package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 {
		t.Errorf("N = %d, want 8", s.N())
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample std of this classic dataset is sqrt(32/7).
	if got, want := s.Std(), math.Sqrt(32.0/7.0); math.Abs(got-want) > 1e-12 {
		t.Errorf("Std = %v, want %v", got, want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
	if got := s.Sum(); math.Abs(got-40) > 1e-9 {
		t.Errorf("Sum = %v, want 40", got)
	}
}

func TestSummaryZeroValueUsable(t *testing.T) {
	var s Summary
	s.Add(1)
	s.Add(3)
	if s.Mean() != 2 {
		t.Errorf("Mean = %v, want 2", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 3 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Median(); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
}

func TestSummaryPercentile(t *testing.T) {
	s := NewSummary()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5}, {25, 25.75}, {99, 99.01},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestSummaryPercentileEmpty(t *testing.T) {
	s := NewSummary()
	if got := s.Percentile(50); !math.IsNaN(got) {
		t.Errorf("Percentile on empty = %v, want NaN", got)
	}
}

func TestSummaryMatchesNaiveMoments(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				clean = append(clean, v)
			}
		}
		if len(clean) < 2 {
			return true
		}
		s := NewSummary()
		var sum float64
		for _, v := range clean {
			s.Add(v)
			sum += v
		}
		mean := sum / float64(len(clean))
		var ss float64
		for _, v := range clean {
			ss += (v - mean) * (v - mean)
		}
		variance := ss / float64(len(clean)-1)
		return math.Abs(s.Mean()-mean) < 1e-6 && math.Abs(s.Var()-variance) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "k", "messages", "ratio")
	tb.AddRow(4, 7000, 0.52)
	tb.AddRow(10, int64(12500), "1.79")
	tb.AddNote("seed=%d", 42)

	text := tb.Render()
	for _, want := range []string{"demo", "messages", "7000", "12500", "0.52", "note: seed=42"} {
		if !strings.Contains(text, want) {
			t.Errorf("Render missing %q in:\n%s", want, text)
		}
	}

	md := tb.RenderMarkdown()
	if !strings.Contains(md, "| k | messages | ratio |") {
		t.Errorf("Markdown header malformed:\n%s", md)
	}
	if !strings.Contains(md, "| 4 | 7000 | 0.52 |") {
		t.Errorf("Markdown row malformed:\n%s", md)
	}

	csv := tb.RenderCSV()
	if !strings.HasPrefix(csv, "k,messages,ratio\n") {
		t.Errorf("CSV header malformed:\n%s", csv)
	}
	if !strings.Contains(csv, "4,7000,0.52\n") {
		t.Errorf("CSV row malformed:\n%s", csv)
	}
}

func TestTableCSVEscaping(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow(`x"y,z`)
	csv := tb.RenderCSV()
	if !strings.Contains(csv, `"x""y,z"`) {
		t.Errorf("CSV escaping wrong:\n%s", csv)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(0.123456789)
	if !strings.Contains(tb.Render(), "0.1235") {
		t.Errorf("float not formatted with %%.4g:\n%s", tb.Render())
	}
}
