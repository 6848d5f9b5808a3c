package engine

import (
	"container/list"
	"sync"

	"repro/internal/cg"
	"repro/internal/obs"
	"repro/internal/relsched"
)

// analysisEntry is one memoized scheduling outcome. An entry holds the
// graph that was scheduled, its anchor-set analysis (relsched.AnchorInfo:
// the full and relevant anchor sets, completed with the irredundant sets
// once scheduled), and either the minimum relative schedule with its
// packed σ columns or the deterministic error verdict (unfeasible,
// ill-posed, inconsistent) when no schedule exists. All fields are
// immutable after construction: the graph is frozen, AnchorInfo and
// Schedule are never written after Analyze/schedule return, so entries
// are safe to share across worker goroutines and across results.
type analysisEntry struct {
	graph *cg.Graph // the (possibly serialized) graph that was scheduled
	info  *relsched.AnchorInfo
	sched *relsched.Schedule
	added int // serialization edges introduced by MakeWellPosed
	err   error
}

// cacheKey identifies a memoized outcome: the canonical graph fingerprint
// plus the one job option that changes the computed artifact (whether
// ill-posed graphs are repaired before scheduling). The anchor mode is
// deliberately absent — a Schedule stores offsets against the full anchor
// sets and projects Relevant/Irredundant views on read (Theorems 4/6
// guarantee identical start times), so one entry serves every mode.
type cacheKey struct {
	fp       Fingerprint
	wellPose bool
}

// cache is a mutex-guarded LRU over analysisEntry values, together with
// the singleflight table of keys being computed right now. Hit/miss
// accounting lives in the engine's metrics (the engine also counts
// duplicate-suppressed lookups); the cache itself reports only
// evictions, which happen under its lock.
type cache struct {
	mu       sync.Mutex
	capacity int
	entries  map[cacheKey]*list.Element
	order    *list.List // front = most recently used
	// flight tracks in-progress computations: concurrent misses on the
	// same key wait for the first worker (the leader) instead of each
	// burning an O(|A|·|V|·|E|) pipeline run. A key is present exactly
	// while a leader is computing it.
	flight    map[cacheKey]*flightCall
	evictions *obs.Counter
}

type cacheItem struct {
	key   cacheKey
	entry *analysisEntry
}

func newCache(capacity int, evictions *obs.Counter) *cache {
	return &cache{
		capacity:  capacity,
		entries:   make(map[cacheKey]*list.Element, capacity),
		order:     list.New(),
		flight:    make(map[cacheKey]*flightCall),
		evictions: evictions,
	}
}

// lookupOrLead is the engine's miss-coalescing lookup: one locked step
// that either answers from the cache (entry non-nil, promoted to most
// recently used), joins an in-flight leader (call non-nil, leader
// false), or registers the caller as the leader for key (leader true).
// Folding the flight check into the cache lookup leaves no window in
// which two workers could both miss and both lead.
func (c *cache) lookupOrLead(key cacheKey) (entry *analysisEntry, call *flightCall, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*cacheItem).entry, nil, false
	}
	if call, ok := c.flight[key]; ok {
		return nil, call, false
	}
	call = &flightCall{done: make(chan struct{})}
	c.flight[key] = call
	return nil, call, true
}

// leaderDone publishes the leader's outcome: the entry enters the cache
// and the flight slot is released in one locked step (so a follower
// that loops after the wake-up cannot miss both), then waiting followers
// are woken. A cancelled leader passes entry == nil and publishes
// nothing; its followers loop and elect a new leader.
func (c *cache) leaderDone(key cacheKey, call *flightCall, entry *analysisEntry) {
	call.entry = entry
	c.mu.Lock()
	delete(c.flight, key)
	if entry != nil {
		// A leader cancelled after publishing can race a successor for
		// the same key: the first insertion wins, so every Result for a
		// fingerprint shares one entry.
		if _, dup := c.entries[key]; !dup {
			c.entries[key] = c.order.PushFront(&cacheItem{key: key, entry: entry})
			c.evictLocked()
		}
	}
	c.mu.Unlock()
	close(call.done)
}

// evictLocked drops least-recently-used entries while the cache is over
// capacity. Caller holds mu.
func (c *cache) evictLocked() {
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheItem).key)
		c.evictions.Inc()
	}
}

// len returns the number of live entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// setCapacity rebounds the cache, evicting least-recently-used entries
// when the new capacity is below the current population.
func (c *cache) setCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = n
	c.evictLocked()
}

// getCapacity returns the current bound.
func (c *cache) getCapacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

// CacheStats reports the engine cache's effectiveness.
type CacheStats struct {
	// Hits and Misses count lookups since the engine was created. A
	// duplicate-suppressed lookup (served by a concurrent leader's
	// computation rather than the cache) counts as a miss.
	Hits, Misses uint64
	// Evictions counts LRU evictions.
	Evictions uint64
	// Suppressed counts duplicate-suppressed lookups: concurrent misses
	// on the same key that shared the in-flight leader's computation
	// instead of recomputing (see docs/CONCURRENCY.md).
	Suppressed uint64
	// Entries is the number of memoized analyses currently held.
	Entries int
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
