package network

// Test hooks for the external network_test package.

// CaptureFull takes a from-scratch snapshot of n, bypassing and leaving
// untouched the memoized view and order.
func (n *Network) CaptureFull() *Snapshot {
	s, _ := n.captureFull()
	return s
}

// NumPages returns the number of copy-on-write pages in s.
func NumPages(s *Snapshot) int { return len(s.pages) }

// SharedPages counts the page positions at which a and b hold the very
// same backing page.
func SharedPages(a, b *Snapshot) int {
	shared := 0
	for p := range min(len(a.pages), len(b.pages)) {
		if len(a.pages[p]) > 0 && len(b.pages[p]) > 0 && &a.pages[p][0] == &b.pages[p][0] {
			shared++
		}
	}
	return shared
}
