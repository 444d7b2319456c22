package bitmap

import "math/bits"

// Iterator streams a bitmap's values in ascending order. It is a value
// type: obtain one with Bitmap.Iterator, keep it on the stack, and call
// Next until ok is false — the loop allocates nothing. Mutating the
// bitmap invalidates the iterator.
type Iterator struct {
	b  *Bitmap
	ci int // current container
	// array / run progress
	ai int
	// run offset within runs[ai]
	ro uint32
	// bitmap progress: next word index and the current word's remaining bits
	wi   int
	word uint64
}

// Iterator returns an iterator positioned before the first value.
func (b *Bitmap) Iterator() Iterator {
	return Iterator{b: b}
}

// Next returns the next value in ascending order.
//
//hdlint:hotpath
func (it *Iterator) Next() (uint32, bool) {
	for it.ci < len(it.b.cts) {
		c := &it.b.cts[it.ci]
		base := uint32(it.b.keys[it.ci]) << 16
		switch c.typ {
		case typeArray:
			if it.ai < len(c.arr) {
				v := base | uint32(c.arr[it.ai])
				it.ai++
				return v, true
			}
		case typeBitmap:
			for {
				if it.word != 0 {
					tz := bits.TrailingZeros64(it.word)
					it.word &= it.word - 1
					return base | uint32((it.wi-1)<<6+tz), true
				}
				if it.wi >= containerWords {
					break
				}
				it.word = c.words[it.wi]
				it.wi++
			}
		default: // typeRun
			if it.ai < len(c.runs) {
				r := c.runs[it.ai]
				v := base | (uint32(r.Start) + it.ro)
				if uint32(r.Start)+it.ro >= uint32(r.Last) {
					it.ai++
					it.ro = 0
				} else {
					it.ro++
				}
				return v, true
			}
		}
		it.ci++
		it.ai, it.ro, it.wi, it.word = 0, 0, 0, 0
	}
	return 0, false
}
