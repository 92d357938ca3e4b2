// Package lockgraph is the fixture for the whole-program lock graph:
// two unranked mutexes — invisible to the rank-order check — taken in
// opposite orders, the second edge only through a call.
package lockgraph

import "sync"

type A struct {
	mu sync.Mutex
}

type B struct {
	mu sync.Mutex
}

// lockBoth takes A.mu, then B.mu: edge A.mu -> B.mu.
func lockBoth(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func (a *A) touch() {
	a.mu.Lock()
	a.mu.Unlock()
}

// lockBThenA holds B.mu across a.touch(), which takes A.mu: edge
// B.mu -> A.mu, visible only through touch's summary.
func lockBThenA(a *A, b *B) {
	b.mu.Lock()
	a.touch()
	b.mu.Unlock()
}
