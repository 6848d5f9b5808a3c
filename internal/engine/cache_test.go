package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
)

// registerFlightForTest installs a flight call directly, letting tests
// play a singleflight leader deterministically.
func (c *cache) registerFlightForTest(key cacheKey, call *flightCall) {
	c.mu.Lock()
	c.flight[key] = call
	c.mu.Unlock()
}

func newTestCache(capacity int) (*cache, *obs.Counter) {
	ev := obs.NewRegistry().Counter("test.evictions")
	return newCache(capacity, ev), ev
}

// fpForTest derives a pseudorandom fingerprint from a counter.
func fpForTest(i uint64) Fingerprint {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], i)
	return Fingerprint(sha256.Sum256(buf[:]))
}

// getForTest is a read-only lookup through the production path: a hit
// promotes the entry, and a miss abandons the leadership lookupOrLead
// handed out, publishing nothing.
func (c *cache) getForTest(key cacheKey) bool {
	entry, call, leader := c.lookupOrLead(key)
	if leader {
		c.leaderDone(key, call, nil)
	}
	return entry != nil
}

// putForTest inserts through the production path: a hit promotes the
// existing entry, a miss leads and publishes entry.
func (c *cache) putForTest(key cacheKey, entry *analysisEntry) {
	if _, call, leader := c.lookupOrLead(key); leader {
		c.leaderDone(key, call, entry)
	}
}

// lruOracle is a reference model of the cache: one recency list over
// all keys, where a lookup of a present key promotes it.
type lruOracle struct {
	cap   int
	order []cacheKey // order[0] = most recently used
}

func (o *lruOracle) find(k cacheKey) int {
	for i, have := range o.order {
		if have == k {
			return i
		}
	}
	return -1
}

func (o *lruOracle) get(k cacheKey) bool {
	i := o.find(k)
	if i < 0 {
		return false
	}
	o.order = append([]cacheKey{k}, append(o.order[:i:i], o.order[i+1:]...)...)
	return true
}

func (o *lruOracle) put(k cacheKey) (evicted int) {
	if o.get(k) {
		return 0
	}
	o.order = append([]cacheKey{k}, o.order...)
	for len(o.order) > o.cap {
		o.order = o.order[:len(o.order)-1]
		evicted++
	}
	return evicted
}

func (o *lruOracle) setCap(n int) (evicted int) {
	o.cap = n
	for len(o.order) > n {
		o.order = o.order[:len(o.order)-1]
		evicted++
	}
	return evicted
}

// TestCacheLRUOracle drives the cache's lookupOrLead/leaderDone path and
// a flat LRU model through the same random sequential workload and
// demands identical behavior: same retained key set, same hit/miss
// answers, same eviction count after every operation. SetCacheCapacity
// shrinks are part of the workload.
func TestCacheLRUOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, ev := newTestCache(16)
	oracle := &lruOracle{cap: 16}
	entry := &analysisEntry{}
	var oracleEvictions uint64

	for step := 0; step < 5000; step++ {
		key := cacheKey{fp: fpForTest(uint64(rng.Intn(48))), wellPose: rng.Intn(2) == 0}
		switch op := rng.Intn(10); {
		case op < 5: // get
			wantHit := oracle.get(key)
			if gotHit := c.getForTest(key); gotHit != wantHit {
				t.Fatalf("step %d: get hit = %v, oracle says %v", step, gotHit, wantHit)
			}
		case op < 9: // put
			oracleEvictions += uint64(oracle.put(key))
			c.putForTest(key, entry)
		default: // capacity change, shrink-biased
			n := 2 + rng.Intn(24)
			oracleEvictions += uint64(oracle.setCap(n))
			c.setCapacity(n)
		}
		if got, want := c.len(), len(oracle.order); got != want {
			t.Fatalf("step %d: len = %d, oracle has %d", step, got, want)
		}
		if got := ev.Value(); got != oracleEvictions {
			t.Fatalf("step %d: evictions = %d, oracle says %d", step, got, oracleEvictions)
		}
	}

	if len(c.entries) != len(oracle.order) {
		t.Fatalf("final population %d, oracle has %d", len(c.entries), len(oracle.order))
	}
	for _, k := range oracle.order {
		if _, ok := c.entries[k]; !ok {
			t.Fatalf("oracle retains %x/%v but cache evicted it", k.fp[:4], k.wellPose)
		}
	}
}

// TestCacheRaceStress hammers lookupOrLead/leaderDone and concurrent
// SetCacheCapacity from several goroutines; run under -race as part of
// tier-1. Assertions are interleaving-independent: the map and the LRU
// list agree, no flight entry leaks, and the capacity bound holds once
// the dust settles.
func TestCacheRaceStress(t *testing.T) {
	c, _ := newTestCache(64)
	entry := &analysisEntry{}
	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				key := cacheKey{fp: fpForTest(uint64(rng.Intn(256)))}
				switch op := rng.Intn(20); {
				case op < 8:
					c.getForTest(key)
				case op < 19:
					e, call, leader := c.lookupOrLead(key)
					if e == nil && leader {
						c.leaderDone(key, call, entry)
					} else if e == nil {
						<-call.done
					}
				default:
					c.setCapacity(16 + rng.Intn(96))
				}
			}
		}(int64(w))
	}
	wg.Wait()

	if len(c.entries) != c.order.Len() {
		t.Errorf("map has %d entries but ring has %d", len(c.entries), c.order.Len())
	}
	if len(c.flight) != 0 {
		t.Errorf("%d flight entries leaked", len(c.flight))
	}
	if got, limit := c.len(), c.getCapacity(); got > limit {
		t.Errorf("%d entries over capacity %d", got, limit)
	}
	// One final sequential rebound must land exactly on the cap.
	c.setCapacity(8)
	if got := c.len(); got > 8 {
		t.Errorf("after setCapacity(8): %d entries", got)
	}
}

// TestFingerprintOfZeroAlloc pins the pooled-hasher property: hashing a
// graph allocates nothing in steady state (the sha256 state is pooled,
// strings stage through a scratch buffer, and the digest lands in the
// returned value).
func TestFingerprintOfZeroAlloc(t *testing.T) {
	g := buildFig2ish()
	g.MustFreeze()
	FingerprintOf(g) // warm the pool
	avg := testing.AllocsPerRun(200, func() { FingerprintOf(g) })
	if avg > 0.1 {
		t.Errorf("FingerprintOf allocates %.2f objects/run, want 0", avg)
	}
}
