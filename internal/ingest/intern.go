// Package ingest is the sharded streaming ingest layer: it scans N log
// shards (whole files, or byte-range splits of splittable files) in
// parallel workers, parses lines zero-copy into per-worker record views,
// interns source/destination/path strings through a sharded symbol table
// so pair identity is a pair of uint32 IDs instead of a concatenated
// "src|dst" string, and hash-partitions events by pair ID into per-shard
// accumulators that append timestamps directly into
// timeseries.ActivitySummary builders.
//
// This mirrors the paper's evaluation architecture (Sect. VI: log
// ingestion sharded across thousands of Hadoop mappers) at process scale:
// the full corpus is never materialized as records or events — the only
// per-record state that crosses the scan/aggregate boundary is a 20-byte
// (pairID, timestamp, pathID) tuple — so ingest saturates all cores on
// multi-GB corpora instead of serializing on a single parse loop.
//
// Already-parsed input (a record slice, DNS or NetFlow events) enters
// through a second adapter, IngestEvents, that fills the same partition
// buffers; the aggregation that builds summaries is the only one in the
// repository.
package ingest

import (
	"hash/maphash"
	"sync"
)

// symShardBits selects the symbol-table shard from a string's hash; 32
// shards keep lock contention negligible at ingest worker counts.
const symShardBits = 5

// SymbolTable interns strings to dense uint32 IDs. It is sharded by
// string hash: each shard has its own lock, map and string store, and an
// ID encodes (index within shard, shard) so lookups never touch another
// shard's lock. Safe for concurrent use; IDs are stable for the table's
// lifetime but NOT stable across tables or runs — they are in-memory
// identity, never serialized.
type SymbolTable struct {
	shards [1 << symShardBits]symShard
}

type symShard struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}

// NewSymbolTable returns an empty table.
func NewSymbolTable() *SymbolTable {
	t := &SymbolTable{}
	for i := range t.shards {
		t.shards[i].ids = make(map[string]uint32)
	}
	return t
}

// Intern returns the ID for the string spelled by b, assigning one on
// first sight. The fast path (symbol already present) takes a shared
// lock and does not allocate: the map lookup converts b without copying.
//
//bw:noalloc per-record hot path; the insert slow path is in symShard.intern
func (t *SymbolTable) Intern(b []byte) uint32 {
	return t.internHash(b, hashBytes(b))
}

// internHash is Intern with the hash already computed — the per-worker
// cache computes it once for both its probe and the shard selection.
//
//bw:noalloc per-record hot path; the insert slow path is in symShard.intern
func (t *SymbolTable) internHash(b []byte, h uint64) uint32 {
	shard := uint32(h & (1<<symShardBits - 1))
	sh := &t.shards[shard]
	sh.mu.RLock()
	id, ok := sh.ids[string(b)]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	return sh.intern(string(b), shard)
}

// InternString is Intern for an already-materialized string (resolved
// correlator identities, API boundaries).
func (t *SymbolTable) InternString(s string) uint32 {
	return t.internStringHash(s, hashString(s))
}

// internStringHash is internHash for an already-materialized string.
//
//bw:noalloc per-event hot path; the insert slow path is in symShard.intern
func (t *SymbolTable) internStringHash(s string, h uint64) uint32 {
	shard := uint32(h & (1<<symShardBits - 1))
	sh := &t.shards[shard]
	sh.mu.RLock()
	id, ok := sh.ids[s]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	return sh.intern(s, shard)
}

// intern is the insert slow path: take the write lock, re-check, append.
func (sh *symShard) intern(s string, shard uint32) uint32 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.ids[s]; ok {
		return id
	}
	idx := uint32(len(sh.strs))
	sh.strs = append(sh.strs, s)
	id := idx<<symShardBits | shard
	sh.ids[s] = id
	return id
}

// Lookup resolves an ID back to its string. IDs come only from this
// table's Intern calls; an unknown ID panics (it is a program bug, not
// an input condition — malformed input can never mint an ID).
func (t *SymbolTable) Lookup(id uint32) string {
	sh := &t.shards[id&(1<<symShardBits-1)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.strs[id>>symShardBits]
}

// Len returns the number of interned symbols.
func (t *SymbolTable) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.strs)
		sh.mu.RUnlock()
	}
	return n
}

// symSeed is the process-wide symbol hash seed. IDs and shard placement
// are in-memory identity only (never serialized), so a per-process seed
// is safe and hardens the shard distribution against crafted inputs.
var symSeed = maphash.MakeSeed()

// hashBytes hashes b with the runtime's hardware-accelerated string hash;
// one hash serves the per-worker cache probe and the shard selection.
func hashBytes(b []byte) uint64 { return maphash.Bytes(symSeed, b) }

func hashString(s string) uint64 { return maphash.String(symSeed, s) }

// symbolShard maps b to its shard index.
//
//bw:noalloc per-record hot path
func symbolShard(b []byte) uint64 {
	return hashBytes(b) & (1<<symShardBits - 1)
}

// symCacheBits sizes the per-worker cache: 1024 direct-mapped entries
// (32 KiB) comfortably hold a scan worker's working set of endpoint
// strings (client IPs, hosts, URL paths repeat heavily within a shard).
const symCacheBits = 10

type symCacheEntry struct {
	// hash is the symbol's full hash with bit 0 forced to 1, so the zero
	// value (empty slot) never matches a probe.
	hash uint64
	id   uint32
	// s is the table's canonical string for id — never an alias of a scan
	// buffer.
	s string
}

// symCache is a scan worker's private, direct-mapped, lock-free cache in
// front of a SymbolTable: a hit costs one hash and one string compare,
// with none of the shared table's lock traffic. Misses fall through to
// the table, so a cache is never wrong, only cold. Caches are pooled and
// keep their entries across ingests over the same table (IDs are
// append-only, so stale entries cannot exist).
type symCache struct {
	tab     *SymbolTable
	entries [1 << symCacheBits]symCacheEntry
}

var symCachePool = sync.Pool{New: func() any { return new(symCache) }}

// borrowSymCache returns a pooled cache bound to tab, flushing it only
// when it last served a different table.
//
//bw:pool-handoff ownership passes to the scan worker, which Puts the cache back when its shard queue drains
func borrowSymCache(tab *SymbolTable) *symCache {
	c := symCachePool.Get().(*symCache)
	if c.tab != tab {
		*c = symCache{tab: tab}
	}
	return c
}

// id interns b through the cache. The top hash bits index the cache (the
// bottom bits select the table shard, so using them here would alias
// whole shards onto single slots).
//
//bw:noalloc per-record hot path
func (c *symCache) id(b []byte) uint32 {
	h := hashBytes(b)
	e := &c.entries[h>>(64-symCacheBits)]
	key := h | 1
	if e.hash == key && e.s == string(b) {
		return e.id
	}
	id := c.tab.internHash(b, h)
	*e = symCacheEntry{hash: key, id: id, s: c.tab.Lookup(id)}
	return id
}

// idString is id for an already-materialized string (the event adapter);
// the hash of a string equals the hash of its bytes, so both spellings of
// a symbol share one cache slot and one ID.
//
//bw:noalloc per-event hot path
func (c *symCache) idString(s string) uint32 {
	h := hashString(s)
	e := &c.entries[h>>(64-symCacheBits)]
	key := h | 1
	if e.hash == key && e.s == s {
		return e.id
	}
	id := c.tab.internStringHash(s, h)
	*e = symCacheEntry{hash: key, id: id, s: c.tab.Lookup(id)}
	return id
}

// PairID identifies a communication pair by its interned source and
// destination symbols. It replaces the "src|dst" concatenated string as
// the pipeline's hot-path pair identity: 8 bytes, comparable, and immune
// to separator ambiguity (a source or destination containing '|' can
// never collide with a different pair).
type PairID struct {
	Src, Dst uint32
}

// PairHash mixes a PairID into a well-distributed 64-bit hash
// (splitmix64 finalizer), used to partition events over the aggregation
// accumulators.
func PairHash(p PairID) uint64 {
	x := uint64(p.Src)<<32 | uint64(p.Dst)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
