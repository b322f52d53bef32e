package dht

// BuildLegacy is the original O(n²) all-pairs construction: every node learns
// every other node's entry through AddEntry, which keeps only the relevant
// leaf and table slots. It is retained as the reference implementation for
// the differential tests that certify Build's equivalence.
func BuildLegacy(nodes []*Node) {
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.AddEntry(b.self)
			}
		}
	}
}
