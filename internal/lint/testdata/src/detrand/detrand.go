// Package detrand is the wrs-lint fixture for the detrand analyzer
// (its testdata path opts it in; see detrandPkgs): ambient
// randomness, wall-clock reads and waits, and map-order iteration
// inside what the analyzer treats as a deterministic protocol package.
package detrand

import (
	"math/rand" // want "import of math/rand"
	"sort"
	"time"
)

// pick draws from the ambient source instead of an injected xrand
// split stream; the import line carries the finding.
func pick(xs []int) int {
	return xs[rand.Intn(len(xs))]
}

// stamp makes protocol state depend on the wall clock.
func stamp() int64 {
	return time.Now().UnixNano() // want "time.Now in a deterministic protocol package"
}

// pollUntil waits for a condition by polling the clock instead of
// blocking on the event that makes it true.
func pollUntil(done func() bool) {
	for !done() {
		time.Sleep(100 * time.Microsecond) // want "time.Sleep in a deterministic protocol package: wait on the event"
	}
}

// timeout races the work against a timer.
func timeout(work <-chan struct{}) bool {
	select {
	case <-work:
		return true
	case <-time.After(time.Millisecond): // want "time.After in a deterministic protocol package: wait on the event"
		return false
	}
}

// badKeys feeds output from a randomized traversal order.
func badKeys(m map[int]int) []int {
	var out []int
	for k := range m { // want "map iteration order is randomized"
		out = append(out, k)
	}
	return out
}

// goodTotal is order-insensitive and annotated as such.
func goodTotal(m map[int]int) int {
	n := 0
	//wrslint:allow detrand pure sum: the traversal order cannot affect the result
	for _, v := range m {
		n += v
	}
	return n
}

// goodSortedKeys is the deterministic traversal shape: collect
// (order-insensitively), then sort.
func goodSortedKeys(m map[int]int) []int {
	keys := make([]int, 0, len(m))
	//wrslint:allow detrand key collection is order-insensitive; keys are sorted below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
