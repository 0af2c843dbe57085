package wire

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"unsafe"
)

// internKey is a 256-byte string unique to i.
func internKey(i int) []byte {
	b := make([]byte, 256)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

// TestInternSharesEqualStrings: an equal string comes back as the slice
// the table already holds, never as the caller's bytes, and every result
// is exact-size.
func TestInternSharesEqualStrings(t *testing.T) {
	in := NewInterner()
	src := internKey(7)
	first := in.intern(src)
	if !bytes.Equal(first, src) || unsafe.SliceData(first) == unsafe.SliceData(src) {
		t.Fatal("intern returned the input or different bytes")
	}
	if cap(first) != len(first) {
		t.Errorf("cap %d != len %d", cap(first), len(first))
	}
	again := in.intern(bytes.Clone(src))
	if unsafe.SliceData(again) != unsafe.SliceData(first) || cap(again) != len(again) {
		t.Error("an equal string was copied again instead of shared")
	}
	if got := in.intern([]byte{}); got == nil || len(got) != 0 {
		t.Errorf("empty string interned as %#v, want a non-nil empty slice", got)
	}
	big := make([]byte, maxInternLen+1)
	if a, b := in.intern(big), in.intern(big); unsafe.SliceData(a) == unsafe.SliceData(b) || cap(a) != len(a) {
		t.Error("a string over maxInternLen was kept in the table")
	}
}

// TestInternEvictionKeepsResults: more distinct strings than slots evict
// each other, and no eviction changes a slice handed out earlier.
func TestInternEvictionKeepsResults(t *testing.T) {
	in := NewInterner()
	const n = 4 * internSlots
	got := make([][]byte, n)
	for i := range got {
		got[i] = in.intern(internKey(i))
	}
	for i := range got {
		if !bytes.Equal(got[i], internKey(i)) {
			t.Fatalf("string %d changed after %d more were interned", i, n-i)
		}
		if again := in.intern(internKey(i)); !bytes.Equal(again, internKey(i)) {
			t.Fatalf("string %d re-interned as another string's bytes", i)
		}
	}
}

// TestInternConcurrent: the reader goroutines of one node share its
// table. Each interns an overlapping set of strings, checking every
// result against its own input; run under -race.
func TestInternConcurrent(t *testing.T) {
	in := NewInterner()
	const workers, keys, rounds = 4, 3 * internSlots, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := w * keys / 2; k < w*keys/2+keys; k++ {
					want := internKey(k)
					got := in.intern(want)
					if !bytes.Equal(got, want) || cap(got) != len(got) {
						t.Errorf("worker %d: key %d interned as other bytes (len %d, cap %d)", w, k, len(got), cap(got))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
