// Package locktrunc is the golden fixture for lock summaries truncated
// at locksum's event cap.
package locktrunc

import (
	"sync"
	"time"
)

type T struct {
	mu    sync.Mutex // lock-rank: 20
	mid   sync.Mutex // lock-rank: 25
	inner sync.Mutex // lock-rank: 30
}

// deep's recursion doubles its summary every fixpoint round until the
// event cap cuts it.
func (t *T) deep() {
	t.inner.Lock()
	t.inner.Unlock()
	t.deep()
	t.deep()
}

// big holds mu for its whole body. Its summary is cut at the cap, which
// drops the deferred release at its end and may end inside deep's
// inner critical section.
func (t *T) big() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.deep()
}

// Neither lock is held after big returns: nothing here is a lockorder
// or lockblock finding. Each position reports one skipped check per
// truncated call, however many of its locks it skipped.
func lockAfterBig(t *T) {
	t.big()
	t.mu.Lock() // want `t\.mu acquisition not checked against t\.mu: the call at .* replays a lock summary truncated at its event cap`
	t.mu.Unlock()
}

func sleepAfterBig(t *T) {
	t.big()
	time.Sleep(time.Millisecond) // want `time\.Sleep not checked against t\.mu: the call at .* replays a lock summary truncated`
}

// A lock held before the truncated call is still checked against the
// call's exact prefix.
func heldAcrossBig(t *T) {
	t.mid.Lock()
	t.big() // want `t\.mu \(lock-rank 20\) acquired while holding t\.mid \(lock-rank 25\)`
	t.mid.Unlock()
}
