package sim

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	if n := e.Run(0); n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of schedule order: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	e.Schedule(time.Millisecond, func() {
		fired = append(fired, e.Now())
		e.Schedule(time.Millisecond, func() {
			fired = append(fired, e.Now())
		})
	})
	e.Run(0)
	if len(fired) != 2 || fired[0] != time.Millisecond || fired[1] != 2*time.Millisecond {
		t.Errorf("fired = %v", fired)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	timer := e.Schedule(time.Millisecond, func() { ran = true })
	timer.Cancel()
	timer.Cancel() // idempotent
	e.Run(0)
	if ran {
		t.Error("canceled event fired")
	}
	var zero Timer
	zero.Cancel() // zero handle must not panic
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []int
	e.Schedule(1*time.Millisecond, func() { fired = append(fired, 1) })
	e.Schedule(2*time.Millisecond, func() { fired = append(fired, 2) })
	e.Schedule(3*time.Millisecond, func() { fired = append(fired, 3) })
	if n := e.RunUntil(2 * time.Millisecond); n != 2 {
		t.Errorf("RunUntil executed %d, want 2 (deadline inclusive)", n)
	}
	if len(fired) != 2 {
		t.Errorf("fired = %v", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Run(0)
	if len(fired) != 3 {
		t.Errorf("fired after final Run = %v", fired)
	}
}

func TestEngineMaxEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		e.Schedule(time.Millisecond, reschedule)
	}
	e.Schedule(time.Millisecond, reschedule)
	if n := e.Run(100); n != 100 {
		t.Errorf("Run(100) executed %d", n)
	}
	if count != 100 {
		t.Errorf("count = %d, want 100", count)
	}
	if e.Steps() != 100 {
		t.Errorf("Steps = %d, want 100", e.Steps())
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine()
	fired := 0
	timer := e.Schedule(time.Millisecond, func() { fired++ })
	e.Run(0)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	timer.Cancel() // after the event has fired: must be a no-op
	timer.Cancel()
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after cancel-after-fire", e.Pending())
	}
}

func TestEngineCancelAfterReuse(t *testing.T) {
	// The arena recycles slots through a free list; a stale Timer from a
	// fired event must not cancel the unrelated event now occupying its
	// slot. With a single event in flight the slot is reused immediately,
	// so this exercises the generation counter directly.
	e := NewEngine()
	var fired []string
	stale := e.Schedule(time.Millisecond, func() { fired = append(fired, "first") })
	e.Run(0)
	second := e.Schedule(time.Millisecond, func() { fired = append(fired, "second") })
	stale.Cancel() // refers to a recycled slot — must not touch `second`
	e.Run(0)
	if len(fired) != 2 || fired[1] != "second" {
		t.Fatalf("fired = %v; stale handle cancelled a reused slot", fired)
	}
	second.Cancel() // and cancelling the fired event is still a no-op
}

func TestEngineCancelledSlotReused(t *testing.T) {
	// A cancelled event's slot is recycled once the queue drains past it,
	// and fresh events scheduled afterwards fire normally.
	e := NewEngine()
	ran := 0
	timer := e.Schedule(time.Millisecond, func() { ran += 100 })
	timer.Cancel()
	e.Run(0)
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() { ran++ })
	}
	e.Run(0)
	if ran != 10 {
		t.Fatalf("ran = %d, want 10", ran)
	}
}

func TestEngineFIFOAcrossReuse(t *testing.T) {
	// FIFO tie-break at equal timestamps must hold even when the events
	// sit in recycled arena slots from earlier waves.
	e := NewEngine()
	for i := 0; i < 50; i++ {
		e.Schedule(time.Millisecond, func() {})
	}
	e.Run(0)
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events out of schedule order after slot reuse: %v", order)
		}
	}
}

func TestEngineNegativeDelay(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-5*time.Millisecond, func() { ran = true })
	e.Run(0)
	if !ran {
		t.Error("negative-delay event did not fire")
	}
	if e.Now() != 0 {
		t.Errorf("Now = %v, want 0", e.Now())
	}
}

// TestEngineChurnAllocs: once an engine's arena and queue have grown to a
// churning population — 1024 self-rescheduling events, as in
// BenchmarkEngineChurn1M — a Run of 100k more events allocates nothing.
// One measured Run, counted by engineRunAllocs, so a single allocation
// the engine makes cannot round away and none the rest of the process
// makes meanwhile is charged to it.
func TestEngineChurnAllocs(t *testing.T) {
	e := NewEngine()
	var tick func()
	tick = func() { e.Schedule(time.Millisecond, tick) }
	for i := 0; i < 1024; i++ {
		e.Schedule(time.Duration(i), tick)
	}
	e.Run(100_000)
	if got := engineRunAllocs(func() { e.Run(100_000) }); got != 0 {
		t.Errorf("warm churn allocates %d times per Run, want 0", got)
	}
}

// engineRunAllocs returns how many allocations fn makes under Engine.Run,
// counted by profiledAllocs.
func engineRunAllocs(fn func()) int64 {
	return profiledAllocs(fn, func(stack []string) bool {
		return slices.Contains(stack, "repro/internal/sim.(*Engine).Run")
	})
}

// profiledAllocs returns how many allocations fn makes whose stack, as
// function names innermost first, match accepts. testing.AllocsPerRun
// counts every malloc of the process, and during a measured run the
// runtime's scavenger may grow its timer heap, or the cleanup goroutine
// hand a dead engine's run-sort scratch back to scratchPool (allocating
// the pool's per-P array after a collection): under load one of them
// landed in the window in about one full test run in seven. So fn runs
// with every allocation profiled, and only matching stacks count. Two
// collections on each side publish the profile.
func profiledAllocs(fn func(), match func(stack []string) bool) int64 {
	runtime.GC()
	runtime.GC()
	before := sumProfiled(match)
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	fn()
	runtime.MemProfileRate = rate
	runtime.GC()
	runtime.GC()
	return sumProfiled(match) - before
}

// sumProfiled sums the profiled allocations, freed or not, whose stack
// match accepts.
func sumProfiled(match func(stack []string) bool) int64 {
	recs := make([]runtime.MemProfileRecord, 256)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+256)
	}
	var total int64
	var stack []string
	for _, r := range recs {
		stack = stack[:0]
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		if match(stack) {
			total += r.AllocObjects
		}
	}
	return total
}
