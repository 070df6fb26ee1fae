// Package dense provides the hot-path tables' storage helpers: the
// slice-growth policy shared by the dense, index-addressed tables (the
// machine's per-page state, the per-node page tables, and the stats
// counter tables all grow with the same double-or-need policy), and
// BlockTable, the open-addressed block-number table behind the directory
// and the infinite block cache.
package dense

// Grow returns s extended to length at least n, doubling the current
// length to amortize repeated growth. The new tail is zero-valued; the
// prefix is preserved. If s already has length n or more it is returned
// unchanged.
func Grow[T any](s []T, n int) []T {
	if len(s) >= n {
		return s
	}
	m := 2 * len(s)
	if m < n {
		m = n
	}
	out := make([]T, m)
	copy(out, s)
	return out
}
