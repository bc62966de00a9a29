package rcache

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"simmr/internal/engine"
)

// DefaultMemBytes is the in-memory tier budget when Options.MemBytes
// is unset: enough for thousands of sweep cells at typical trace sizes
// without mattering next to the traces themselves.
const DefaultMemBytes = 64 << 20

// entryOverhead approximates the per-entry bookkeeping cost (map slot,
// list node, key) charged against the byte budget on top of the
// encoded payload.
const entryOverhead = 128

// diskExt is the on-disk entry suffix; Clear only ever removes files
// carrying it, so pointing -cache-dir at a populated directory cannot
// destroy foreign data.
const diskExt = ".srrc"

// numShards stripes the memory tier's locks and byte budget, selected
// by the key's top shardBits bits (see shardOf). 16 comfortably exceeds
// the sweep runtime's worker parallelism on the machines this targets.
const (
	shardBits = 4
	numShards = 1 << shardBits
)

// shardOf returns k's shard. The high bits, not the low ones: an
// FNV-1a output's low 4 bits depend only on the low 4 bits of each
// input byte, so keys differing only in nibble-aligned fields — the
// slot counts of a square capacity sweep (32, 48, 64, …, 256) — would
// all share one shard and one sixteenth of the budget.
func (c *Cache) shardOf(k Key) *shard { return &c.shards[k.Lo>>(64-shardBits)] }

// Observer receives cache events for telemetry. All methods must be
// safe for concurrent use; telemetry.SimMetrics implements it with
// nil-receiver-safe methods.
type Observer interface {
	RCacheHit(disk bool)
	RCacheMiss()
	RCacheEvictions(n uint64)
	RCacheBytes(n int64)
}

// Options configures New.
type Options struct {
	// Dir enables the on-disk tier: one file per entry, written
	// atomically. "" keeps the cache memory-only.
	Dir string
	// MemBytes budgets the in-memory tier; <= 0 means DefaultMemBytes.
	MemBytes int64
	// Obs, when non-nil, receives hit/miss/eviction/bytes events.
	Obs Observer
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits       uint64 `json:"hits"`
	DiskHits   uint64 `json:"disk_hits"` // subset of Hits served by the disk tier
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	MemBytes   int64  `json:"mem_bytes"`
	MemEntries int    `json:"mem_entries"`
}

// Cache is the two-tier store. All methods are safe for concurrent use
// and nil-receiver-safe: a nil *Cache is an always-miss cache, so call
// sites need no branching.
type Cache struct {
	shards   [numShards]shard
	dir      string
	perShard int64
	obs      Observer

	hits      atomic.Uint64
	diskHits  atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	bytes     atomic.Int64
}

// node is one resident entry in a shard's intrusive LRU list.
type node struct {
	key        Key
	data       []byte
	prev, next *node
}

type shard struct {
	mu    sync.Mutex
	m     map[Key]*node
	head  *node // most recently used
	tail  *node // least recently used
	bytes int64
}

// New builds a cache. If Dir is set it is created eagerly so the first
// Put never races a missing directory; creation failure degrades to
// memory-only rather than erroring — the cache is an accelerator, not
// a dependency.
func New(opts Options) *Cache {
	c := &Cache{dir: opts.Dir, obs: opts.Obs}
	mem := opts.MemBytes
	if mem <= 0 {
		mem = DefaultMemBytes
	}
	c.perShard = mem / numShards
	for i := range c.shards {
		c.shards[i].m = make(map[Key]*node)
	}
	if c.dir != "" {
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			c.dir = ""
		}
	}
	return c
}

// Get returns the cached Result for k, consulting memory then disk.
// Disk hits are promoted into the memory tier. Every returned Result
// is freshly decoded, so callers may mutate it freely. Any decode or
// CRC failure — either tier — counts as a miss and evicts the bad
// bytes; corruption costs a recompute, never a wrong answer.
func (c *Cache) Get(k Key) (*engine.Result, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardOf(k)
	s.mu.Lock()
	n, ok := s.m[k]
	var data []byte
	if ok {
		s.moveToFront(n)
		data = n.data
	}
	s.mu.Unlock()
	if ok {
		res, err := Decode(data, k)
		if err == nil {
			c.hits.Add(1)
			if c.obs != nil {
				c.obs.RCacheHit(false)
			}
			return res, true
		}
		c.remove(k) // poisoned in-memory entry: drop it, try disk
	}
	if c.dir != "" {
		if img, err := os.ReadFile(c.entryPath(k)); err == nil {
			if res, err := Decode(img, k); err == nil {
				c.insert(k, img)
				c.hits.Add(1)
				c.diskHits.Add(1)
				if c.obs != nil {
					c.obs.RCacheHit(true)
				}
				return res, true
			}
			// Corrupt on disk: delete so the slot heals on next Put.
			os.Remove(c.entryPath(k))
		}
	}
	c.misses.Add(1)
	if c.obs != nil {
		c.obs.RCacheMiss()
	}
	return nil, false
}

// Put stores res under k in both tiers. Failures are silent by design
// (encode overflow, disk errors): the caller already holds the fresh
// result and loses nothing but future hits.
func (c *Cache) Put(k Key, res *engine.Result) {
	if c == nil || res == nil {
		return
	}
	data, err := Encode(k, res)
	if err != nil {
		return
	}
	c.insert(k, data)
	if c.dir != "" {
		writeFileAtomic(c.entryPath(k), data)
	}
}

// insert places encoded bytes into the memory tier, evicting LRU
// entries until the shard fits its budget. Entries larger than the
// whole shard budget skip the memory tier (they would only thrash it);
// the disk tier still serves them.
func (c *Cache) insert(k Key, data []byte) {
	cost := int64(len(data)) + entryOverhead
	if cost > c.perShard {
		return
	}
	s := c.shardOf(k)
	var evicted uint64
	s.mu.Lock()
	n, ok := s.m[k]
	if ok {
		delta := cost - (int64(len(n.data)) + entryOverhead)
		n.data = data
		s.bytes += delta
		c.bytes.Add(delta)
		s.moveToFront(n)
	} else {
		n = &node{key: k, data: data}
		s.m[k] = n
		s.pushFront(n)
		s.bytes += cost
		c.bytes.Add(cost)
	}
	// Evict on both paths: an overwrite that grows the payload can push
	// the shard over budget just as a fresh insert can. The just-touched
	// node is at the front and excluded, so the loop always terminates.
	for s.bytes > c.perShard && s.tail != nil && s.tail != n {
		evicted++
		c.evictOldest(s)
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
		if c.obs != nil {
			c.obs.RCacheEvictions(evicted)
		}
	}
	if c.obs != nil {
		c.obs.RCacheBytes(c.bytes.Load())
	}
}

// remove drops k from the memory tier (poisoned entry path).
func (c *Cache) remove(k Key) {
	s := c.shardOf(k)
	s.mu.Lock()
	if n, ok := s.m[k]; ok {
		s.unlink(n)
		delete(s.m, k)
		cost := int64(len(n.data)) + entryOverhead
		s.bytes -= cost
		c.bytes.Add(-cost)
	}
	s.mu.Unlock()
}

func (c *Cache) evictOldest(s *shard) {
	n := s.tail
	s.unlink(n)
	delete(s.m, n.key)
	cost := int64(len(n.data)) + entryOverhead
	s.bytes -= cost
	c.bytes.Add(-cost)
}

func (s *shard) pushFront(n *node) {
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *shard) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *shard) moveToFront(n *node) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:      c.hits.Load(),
		DiskHits:  c.diskHits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		MemBytes:  c.bytes.Load(),
	}
	for i := range c.shards {
		c.shards[i].mu.Lock()
		st.MemEntries += len(c.shards[i].m)
		c.shards[i].mu.Unlock()
	}
	return st
}

// Dir reports the disk-tier directory ("" when memory-only).
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// DiskInfo scans the disk tier and reports entry count and total
// bytes — the `simmr cache info` backing.
func (c *Cache) DiskInfo() (entries int, bytes int64, err error) {
	if c == nil || c.dir == "" {
		return 0, 0, nil
	}
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return 0, 0, err
	}
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), diskExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		entries++
		bytes += info.Size()
	}
	return entries, bytes, nil
}

// Clear empties the memory tier and deletes every disk entry (only
// files carrying the cache's own extension). The first error is
// reported but removal continues past it.
func (c *Cache) Clear() error {
	if c == nil {
		return nil
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		c.bytes.Add(-s.bytes)
		s.m = make(map[Key]*node)
		s.head, s.tail = nil, nil
		s.bytes = 0
		s.mu.Unlock()
	}
	if c.obs != nil {
		c.obs.RCacheBytes(c.bytes.Load())
	}
	if c.dir == "" {
		return nil
	}
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return err
	}
	var first error
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), diskExt) {
			continue
		}
		if err := os.Remove(filepath.Join(c.dir, de.Name())); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *Cache) entryPath(k Key) string {
	return filepath.Join(c.dir, k.String()+diskExt)
}

// writeFileAtomic is the tracebin.WriteFile pattern: write a sibling
// temp file, then rename into place, so a reader never observes a
// half-written entry. The temp name is unique per writer so two
// goroutines storing the same key never interleave into one file.
// Best-effort: errors leave no temp litter and no entry, which the
// CRC layer would have caught anyway.
func writeFileAtomic(path string, data []byte) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
	}
}
