// Package segtree implements a lazy segment tree over float64 values
// supporting range add and range minimum queries in O(log n).
//
// RefinePaperPairs (internal/core) uses it to maintain each machine's
// deadline slacks while the paper-literal Algorithm 3 moves time between
// tasks: a change of Δ seconds to task j's time on a machine shifts the
// slack of every deadline i >= j by −Δ (a suffix range-add), and the time
// task j can still gain there is the minimum slack over that suffix (a
// range-min query). Unlike Algorithm 1's allocator, which only ever
// consumes slack, the pair sweep also gives slack back, so it needs
// arbitrary signed range updates.
package segtree

import "math"

// Tree is a lazy range-add range-min segment tree. Use New to construct it.
type Tree struct {
	n    int
	min  []float64
	lazy []float64
}

// New builds a tree over the given initial values. The tree keeps its own
// copy; subsequent changes to vals do not affect it.
func New(vals []float64) *Tree {
	n := len(vals)
	t := &Tree{
		n:    n,
		min:  make([]float64, 4*maxInt(n, 1)),
		lazy: make([]float64, 4*maxInt(n, 1)),
	}
	if n > 0 {
		t.build(1, 0, n-1, vals)
	}
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Len returns the number of leaves.
func (t *Tree) Len() int { return t.n }

func (t *Tree) build(node, lo, hi int, vals []float64) {
	if lo == hi {
		t.min[node] = vals[lo]
		return
	}
	mid := (lo + hi) / 2
	t.build(2*node, lo, mid, vals)
	t.build(2*node+1, mid+1, hi, vals)
	t.min[node] = math.Min(t.min[2*node], t.min[2*node+1])
}

func (t *Tree) push(node int) {
	if t.lazy[node] != 0 {
		for _, c := range [2]int{2 * node, 2*node + 1} {
			t.lazy[c] += t.lazy[node]
			t.min[c] += t.lazy[node]
		}
		t.lazy[node] = 0
	}
}

// AddRange adds delta to every value with index in [l, r] (inclusive).
// Out-of-range or empty intervals are ignored.
func (t *Tree) AddRange(l, r int, delta float64) {
	if t.n == 0 {
		return
	}
	if l < 0 {
		l = 0
	}
	if r >= t.n {
		r = t.n - 1
	}
	if l > r {
		return
	}
	t.addRange(1, 0, t.n-1, l, r, delta)
}

func (t *Tree) addRange(node, lo, hi, l, r int, delta float64) {
	if r < lo || hi < l {
		return
	}
	if l <= lo && hi <= r {
		t.min[node] += delta
		t.lazy[node] += delta
		return
	}
	t.push(node)
	mid := (lo + hi) / 2
	t.addRange(2*node, lo, mid, l, r, delta)
	t.addRange(2*node+1, mid+1, hi, l, r, delta)
	t.min[node] = math.Min(t.min[2*node], t.min[2*node+1])
}

// MinRange returns the minimum value with index in [l, r] (inclusive),
// or +Inf when the clipped interval is empty.
func (t *Tree) MinRange(l, r int) float64 {
	if t.n == 0 {
		return math.Inf(1)
	}
	if l < 0 {
		l = 0
	}
	if r >= t.n {
		r = t.n - 1
	}
	if l > r {
		return math.Inf(1)
	}
	return t.minRange(1, 0, t.n-1, l, r)
}

func (t *Tree) minRange(node, lo, hi, l, r int) float64 {
	if r < lo || hi < l {
		return math.Inf(1)
	}
	if l <= lo && hi <= r {
		return t.min[node]
	}
	t.push(node)
	mid := (lo + hi) / 2
	return math.Min(t.minRange(2*node, lo, mid, l, r), t.minRange(2*node+1, mid+1, hi, l, r))
}

// Get returns the value at index i. It panics for out-of-range i.
func (t *Tree) Get(i int) float64 {
	if i < 0 || i >= t.n {
		panic("segtree: Get index out of range")
	}
	return t.minRange(1, 0, t.n-1, i, i)
}

// Values returns a snapshot of all leaf values.
func (t *Tree) Values() []float64 {
	out := make([]float64, t.n)
	for i := range out {
		out[i] = t.Get(i)
	}
	return out
}
