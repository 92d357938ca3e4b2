package exec

import (
	"sync"

	"patchindex/internal/storage"
)

// Reuse implements intermediate result caching (Section 5): the
// ReuseCache operator materializes its child's result in main memory the
// first time it is drained; ReuseLoad operators replay the cached result
// without recomputation. The PatchIndex optimizations buffer the shared
// subtree "X" this way instead of computing it twice, and the insert
// handling query caches the join result to project both sides' rowIDs.

// Cached is a materialized intermediate result shared by ReuseLoad
// readers: the first load to read drains and closes the child, exactly
// once, and the result, or the error that stopped it, is then shared by
// every load. The fill runs under a sync.Once, so loads drained on
// different goroutines stay safe. The batch is immutable once filled, so consumers that read
// it in place (MergeJoin, HashJoin) must not write to it. A cache no load
// ever reads never opens its child and leaves it unclosed.
type Cached struct {
	schema storage.Schema
	child  Operator
	once   sync.Once
	data   *Batch
	failed error // sticky materialization error
}

// NewReuseCache wraps child; the result is materialized on first use.
func NewReuseCache(child Operator) *Cached {
	return &Cached{schema: child.Schema(), child: child}
}

// MaterializeNow eagerly drains the child into the cache.
func (c *Cached) MaterializeNow() error { return c.fill() }

func (c *Cached) fill() error {
	c.once.Do(func() {
		c.data, c.failed = materializeAll(c.child)
		c.child.Close()
	})
	return c.failed
}

// Load returns a fresh reader over the cached result (a ReuseLoad
// operator). Multiple loads replay the same materialization.
func (c *Cached) Load() Operator { return &reuseLoad{cache: c} }

type reuseLoad struct {
	cache *Cached
	pos   int
}

// materializeShared is materializeAll for consumers that only read the
// result: an unread ReuseLoad hands over its cache's batch in place
// instead of a copy. The caller must not write to the returned batch.
func materializeShared(op Operator) (*Batch, error) {
	r, ok := op.(*reuseLoad)
	if !ok || r.pos != 0 {
		return materializeAll(op)
	}
	if err := r.cache.fill(); err != nil {
		return nil, err
	}
	r.pos = r.cache.data.Len()
	return r.cache.data, nil
}

func (r *reuseLoad) Schema() storage.Schema { return r.cache.schema }

func (r *reuseLoad) Next() (*Batch, error) {
	if err := r.cache.fill(); err != nil {
		return nil, err
	}
	n := r.cache.data.Len()
	if r.pos >= n {
		return nil, nil
	}
	end := r.pos + BatchSize
	if end > n {
		end = n
	}
	// Zero-copy view into the materialized result: the cache is
	// immutable once filled.
	out := r.cache.data.SliceView(r.pos, end)
	r.pos = end
	return out, nil
}

func (r *reuseLoad) Close() {}
