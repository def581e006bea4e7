package sched

// slabChunk is a Slab's growth unit, small so a run's unused tail is.
const slabChunk = 64

// Slab hands out values from chunks of slabChunk that never move, so a
// pointer Next returns stays valid until the next Reset. Reset starts
// over on the same chunks, which only a caller that has dropped every
// pointer into them may do. The zero value is ready to use.
type Slab[T any] struct {
	chunks [][]T
	n      int // values handed out since the last Reset
}

// Next returns the slab's next value, which is zero, adding a chunk when
// all are used.
func (s *Slab[T]) Next() *T {
	if s.n == len(s.chunks)*slabChunk {
		s.chunks = append(s.chunks, make([]T, slabChunk))
	}
	s.n++
	return s.At(s.n - 1)
}

// At returns the i-th value Next handed out since the last Reset.
func (s *Slab[T]) At(i int) *T {
	return &s.chunks[i/slabChunk][i%slabChunk]
}

// Reset zeroes every value handed out, so nothing they pointed to stays
// reachable through the slab, and keeps the chunks for the next Nexts.
func (s *Slab[T]) Reset() {
	for i := 0; i < s.n; i += slabChunk {
		clear(s.chunks[i/slabChunk][:min(slabChunk, s.n-i)])
	}
	s.n = 0
}
