package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"sync"

	"repro/internal/metrics"
	"repro/rapids"
	"repro/rapids/server/store"
)

// cacheKeyVersion is hashed into every cache key. Bump it whenever a
// change alters the Result of an existing spec, so that a result store
// written by older code misses instead of serving a stale Result
// (DESIGN.md §5). Version 2: WithRegions runs whole-network restart
// rounds instead of the region partitioner.
const cacheKeyVersion = 2

// cacheKey digests a request into the content hash the result cache is
// indexed by: the key version, the circuit source (benchmark name, or
// netlist text plus parsed format), the default-filled placement spec,
// and the *canonical* option spec (NewSpec of the expanded options, so
// differently-spelled defaults collapse). Workers is excluded: results
// are bit-identical at every worker count (DESIGN.md §3a), so scoring
// parallelism must not fragment the cache. Everything else — clock,
// strategy, iters, window, regions, verify rounds — changes the Result
// and is part of the key.
func cacheKey(req JobRequest, format rapids.Format) string {
	spec := rapids.NewSpec(req.Options.Options()...)
	spec.Workers = 0
	// Like Workers, a deadline never changes a *completed* Result —
	// runs it interrupts are never cached — so it must not fragment
	// the cache either.
	spec.TimeoutMS = 0
	var place PlaceSpec
	if req.Place != nil {
		place = *req.Place
	}
	canon := struct {
		Version  int         `json:"v"`
		Generate string      `json:"generate,omitempty"`
		Netlist  string      `json:"netlist,omitempty"`
		Format   string      `json:"format,omitempty"`
		Place    PlaceSpec   `json:"place"`
		Options  rapids.Spec `json:"options"`
	}{
		Version:  cacheKeyVersion,
		Generate: req.Generate,
		Netlist:  req.Netlist,
		Place:    place.withDefaults(),
		Options:  spec,
	}
	if req.Netlist != "" {
		// Auto parses as BLIF for inline payloads (no file name to
		// dispatch on), so the two spellings share one key.
		if format == rapids.FormatAuto {
			format = rapids.FormatBLIF
		}
		canon.Format = format.String()
	}
	b, err := json.Marshal(canon)
	if err != nil {
		// Only unmarshalable types could fail here, and canon has none.
		panic("server: cache key encoding: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// cacheEntry is one cached run: the result plus the identity fields a
// born-done job needs for its status and synthesized EventDone. sum is
// the integrity checksum of the result at insertion time; get re-checks
// it so a corrupted entry is dropped and re-run instead of served.
type cacheEntry struct {
	circuit  string
	gates    int
	strategy rapids.Strategy
	result   *rapids.Result
	sum      string
}

// resultSum digests a result for the cache's integrity check.
func resultSum(r *rapids.Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		// Result is a plain struct of marshalable fields.
		panic("server: result checksum encoding: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// newCacheEntry builds an entry with its checksum sealed in.
func newCacheEntry(circuit string, gates int, res *rapids.Result) *cacheEntry {
	return &cacheEntry{
		circuit: circuit, gates: gates,
		strategy: res.Strategy, result: res, sum: resultSum(res),
	}
}

// intact re-verifies the checksum.
func (e *cacheEntry) intact() bool { return resultSum(e.result) == e.sum }

// lookupResult consults the local LRU first and then the shared store
// (Config.Store, fleet mode): the two-level read path. A hit at either
// level returns the entry plus the submission outcome it should count
// as (outcomeCacheHit / outcomeStoreHit); a store hit is promoted into
// the LRU so the next lookup stays local. Integrity failures at either
// level drop the entry and fall through — a corrupt result is re-run,
// never served. A store *error* (as opposed to a miss) is degraded
// mode: counted, logged, sticky for /healthz, and otherwise treated as
// a miss — a shared-cache outage costs throughput, not availability
// (DESIGN.md §5c).
func (s *Server) lookupResult(key string) (*cacheEntry, string) {
	if e, ok := s.cache.get(key); ok {
		if e.intact() {
			s.metrics.cacheHits.Inc()
			return e, outcomeCacheHit
		}
		s.cache.remove(key)
		s.metrics.cacheCorruptions.Inc()
		s.logf("cache: integrity check failed for key %s, entry dropped", key[:8])
	} else if s.cache != nil {
		s.metrics.cacheMisses.Inc()
	}
	if s.cfg.Store == nil {
		return nil, ""
	}
	se, ok, err := s.cfg.Store.Get(key)
	switch {
	case errors.Is(err, store.ErrCorrupt):
		s.metrics.storeCorruptions.Inc()
		s.logf("store: corrupt entry for key %s dropped", key[:8])
		return nil, ""
	case err != nil:
		s.degradeStore(err)
		return nil, ""
	case !ok:
		s.metrics.storeMisses.Inc()
		s.healStore()
		return nil, ""
	}
	var res rapids.Result
	if err := json.Unmarshal(se.Result, &res); err != nil {
		// Checksummed but undecodable (a foreign writer?): same
		// treatment as corruption — miss, re-run.
		s.metrics.storeCorruptions.Inc()
		s.logf("store: undecodable entry for key %s: %v", key[:8], err)
		return nil, ""
	}
	s.metrics.storeHits.Inc()
	s.healStore()
	e := newCacheEntry(se.Circuit, se.Gates, &res)
	s.cache.put(key, e)
	return e, outcomeStoreHit
}

// publishResult writes a finished run through both cache levels: the
// local LRU (cached, possibly hook-corrupted for the chaos tests) and
// the shared store (always sealed from the pristine result — the
// corruption hook models a bad RAM cell in *this* replica, not a bad
// result). Store failures degrade, they never fail the job.
func (s *Server) publishResult(key string, cached *cacheEntry, res *rapids.Result) {
	s.cache.put(key, cached)
	if s.cfg.Store == nil {
		return
	}
	b, err := json.Marshal(res)
	if err != nil {
		// Result is a plain struct of marshalable fields.
		panic("server: store entry encoding: " + err.Error())
	}
	if err := s.cfg.Store.Put(store.NewEntry(key, cached.circuit, cached.gates, b)); err != nil {
		s.degradeStore(err)
		return
	}
	s.metrics.storePuts.Inc()
	s.healStore()
}

// degradeStore records a shared-store failure: counted, logged, and
// sticky for /healthz. Deliberately *not* surfaced by /readyz — N
// replicas sharing one store must not all turn unready because the
// store is down; each keeps serving from its local LRU and re-runs
// what it cannot find (the degraded-mode contract, DESIGN.md §5c).
func (s *Server) degradeStore(err error) {
	s.metrics.storeDegraded.Inc()
	s.smu.Lock()
	s.storeErr = err
	s.smu.Unlock()
	s.logf("store: degraded: %v", err)
}

// healStore clears the sticky store error after a successful
// operation, so /healthz self-heals like the journal status does.
func (s *Server) healStore() {
	s.smu.Lock()
	s.storeErr = nil
	s.smu.Unlock()
}

func (s *Server) storeStatus() error {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.storeErr
}

// resultCache is a small LRU over content-hash keys. Entries are
// immutable once inserted (the Result of a finished run is never
// written again), so hits can share the pointer. The cache owns the
// eviction counter: put is the only place entries leave by the LRU
// bound, so counting there catches every eviction.
type resultCache struct {
	mu        sync.Mutex
	cap       int
	m         map[string]*list.Element
	l         *list.List // front = most recently used; values are *lruItem
	evictions *metrics.Counter
}

type lruItem struct {
	key   string
	entry *cacheEntry
}

func newResultCache(capacity int, evictions *metrics.Counter) *resultCache {
	if capacity <= 0 {
		return nil // caching disabled; nil methods below are safe
	}
	return &resultCache{
		cap: capacity, m: make(map[string]*list.Element), l: list.New(),
		evictions: evictions,
	}
}

func (c *resultCache) get(key string) (*cacheEntry, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.l.MoveToFront(el)
	return el.Value.(*lruItem).entry, true
}

func (c *resultCache) put(key string, e *cacheEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		el.Value.(*lruItem).entry = e
		c.l.MoveToFront(el)
		return
	}
	c.m[key] = c.l.PushFront(&lruItem{key: key, entry: e})
	for c.l.Len() > c.cap {
		oldest := c.l.Back()
		c.l.Remove(oldest)
		delete(c.m, oldest.Value.(*lruItem).key)
		c.evictions.Inc()
	}
}

// remove drops an entry (the integrity-check failure path).
func (c *resultCache) remove(key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.l.Remove(el)
		delete(c.m, key)
	}
}

func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len()
}
