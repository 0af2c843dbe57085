// Package slab lends slices carved from chunks an arena owns, so state
// that is rebuilt many times over — a trial's DC-net rounds, a group
// directory — costs one allocation per chunk while it grows and none once
// it is rewound and rebuilt to the same shape.
package slab

// Arena lends slices of T. Every Take is a len-n, cap-n cut, so appending
// to one lent slice never reaches its neighbour.
//
// An arena has one of two lifetimes. A kept arena (New) remembers its
// chunks: Rewind takes back everything lent since the last Rewind and
// lends the same memory again, so whoever held a lent slice must be done
// with it by then. An unkept arena (the zero Arena) allocates every
// request exactly and remembers nothing, so what it lends is reclaimed by
// the garbage collector once its holders drop it, and Rewind is a no-op.
//
// Take does not clear: a slice the arena lends again holds what its last
// holder left there. Callers that read before they write clear it first.
// An Arena is not safe for concurrent use.
type Arena[T any] struct {
	chunk  int // length of a standard chunk; 0 for an unkept arena
	chunks [][]T
	cur    int // index of the chunk being carved
	off    int // carved prefix of chunks[cur]
}

// New returns a kept arena whose chunks hold chunk elements each; a
// request larger than that gets a chunk of its own size.
func New[T any](chunk int) Arena[T] {
	if chunk < 1 {
		chunk = 1
	}
	return Arena[T]{chunk: chunk}
}

// Take lends n elements. Their content is unspecified (see Arena).
func (a *Arena[T]) Take(n int) []T {
	if a.chunk == 0 {
		return make([]T, n)
	}
	for ; a.cur < len(a.chunks); a.cur, a.off = a.cur+1, 0 {
		if c := a.chunks[a.cur]; a.off+n <= len(c) {
			a.off += n
			return c[a.off-n : a.off : a.off]
		}
	}
	c := make([]T, max(n, a.chunk))
	a.chunks = append(a.chunks, c)
	a.cur, a.off = len(a.chunks)-1, n
	return c[:n:n]
}

// Rewind takes back everything the arena lent.
func (a *Arena[T]) Rewind() { a.cur, a.off = 0, 0 }

// Fill overwrites everything lent since the last Rewind with v — a
// debugging aid that makes a read of taken-back memory visible.
func (a *Arena[T]) Fill(v T) {
	for i := 0; i < len(a.chunks) && i <= a.cur; i++ {
		c := a.chunks[i]
		if i == a.cur {
			c = c[:a.off]
		}
		for j := range c {
			c[j] = v
		}
	}
}
