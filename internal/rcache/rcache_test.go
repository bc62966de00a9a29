package rcache

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"simmr/internal/engine"
	"simmr/internal/obs"
	"simmr/internal/sched"
	"simmr/internal/synth"
	"simmr/internal/trace"
)

func testResult(t testing.TB, jobs int, cfg engine.Config, p sched.Policy) (*engine.Result, uint64) {
	t.Helper()
	tr, err := synth.ProductionTrace(jobs, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(cfg, tr, p)
	if err != nil {
		t.Fatal(err)
	}
	return res, tr.ContentHash()
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	for _, spans := range []bool{false, true} {
		cfg := engine.DefaultConfig()
		cfg.RecordSpans = spans
		res, h := testResult(t, 30, cfg, sched.MaxEDF{})
		k, ok := KeyFor(h, cfg, sched.MaxEDF{})
		if !ok {
			t.Fatal("MaxEDF must fingerprint")
		}
		img, err := Encode(k, res)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(img, k)
		if err != nil {
			t.Fatalf("spans=%v: %v", spans, err)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("spans=%v: decode != original", spans)
		}
	}
}

func TestKeyDiscriminates(t *testing.T) {
	base := engine.DefaultConfig()
	k0, _ := KeyFor(1, base, sched.FIFO{})
	variants := []struct {
		name string
		hash uint64
		cfg  func(engine.Config) engine.Config
		p    sched.Policy
	}{
		{"trace", 2, nil, sched.FIFO{}},
		{"mapslots", 1, func(c engine.Config) engine.Config { c.MapSlots = 32; return c }, sched.FIFO{}},
		{"redslots", 1, func(c engine.Config) engine.Config { c.ReduceSlots = 32; return c }, sched.FIFO{}},
		{"slowstart", 1, func(c engine.Config) engine.Config { c.MinMapPercentCompleted = 0.5; return c }, sched.FIFO{}},
		{"spans", 1, func(c engine.Config) engine.Config { c.RecordSpans = true; return c }, sched.FIFO{}},
		{"noshuffle", 1, func(c engine.Config) engine.Config { c.NoShuffleModel = true; return c }, sched.FIFO{}},
		{"nofirst", 1, func(c engine.Config) engine.Config { c.NoFirstShuffleSpecialCase = true; return c }, sched.FIFO{}},
		{"preempt", 1, func(c engine.Config) engine.Config { c.PreemptMapTasks = true; return c }, sched.FIFO{}},
		{"policy", 1, nil, sched.MaxEDF{}},
	}
	keys := map[Key]string{k0: "base"}
	for _, v := range variants {
		cfg := base
		if v.cfg != nil {
			cfg = v.cfg(base)
		}
		k, ok := KeyFor(v.hash, cfg, v.p)
		if !ok {
			t.Fatalf("%s: no fingerprint", v.name)
		}
		if prev, dup := keys[k]; dup {
			t.Errorf("%s collides with %s", v.name, prev)
		}
		keys[k] = v.name
	}

	// Sink must NOT affect the key: it observes, it cannot change outcomes.
	withSink := base
	withSink.Sink = nopSink{}
	k1, _ := KeyFor(1, withSink, sched.FIFO{})
	if k1 != k0 {
		t.Error("Sink changed the cache key; it must be excluded")
	}

	// Unfingerprintable policies must refuse a key.
	if _, ok := KeyFor(1, base, &sched.DynamicPriority{}); ok {
		t.Error("DynamicPriority must not produce a cache key")
	}
}

type nopSink struct{}

func (nopSink) Event(obs.Event)     {}
func (nopSink) RunEnd(obs.Counters) {}

// TestGoldenKey pins the exact key bits for fixed inputs — the
// key-material analogue of the policy fingerprint golden table in
// sched/fingerprint_test.go. The key folds keyVersion (entry encoding),
// engine.SemanticsVersion (simulation behavior), the trace digest, the
// Config encoding, and the policy fingerprint; a change to ANY of them
// moves these values. That is the point: silently changed keys orphan
// every persistent cache entry, and an engine behavior change WITHOUT
// a SemanticsVersion bump would keep serving stale pre-change results
// from an existing -cache-dir. If this test fails, decide which lever
// you pulled — bump engine.SemanticsVersion for behavior changes,
// keyVersion for encoding/material changes — then update the golden.
func TestGoldenKey(t *testing.T) {
	if v := engine.SemanticsVersion; v != 1 {
		t.Logf("engine.SemanticsVersion = %d; goldens below were minted at version 1", v)
	}
	base := engine.DefaultConfig()
	preempt := base
	preempt.PreemptMapTasks = true
	preempt.RecordSpans = true
	golden := []struct {
		name   string
		digest uint64
		cfg    engine.Config
		p      sched.Policy
		want   Key
	}{
		{"fifo-base", 0xfeedbeefcafe0001, base, sched.FIFO{},
			Key{Hi: 0x63ee9b9186cae4f3, Lo: 0x92886beb41a2c896}},
		{"maxedf-preempt-spans", 0xfeedbeefcafe0002, preempt, sched.MaxEDF{},
			Key{Hi: 0xeae2703f1cb73bbe, Lo: 0xec968886c11e4193}},
	}
	for _, g := range golden {
		k, ok := KeyFor(g.digest, g.cfg, g.p)
		if !ok {
			t.Fatalf("%s: no fingerprint", g.name)
		}
		if k != g.want {
			t.Errorf("%s: key %s, golden %s — key material changed; bump keyVersion or engine.SemanticsVersion consciously, then re-mint",
				g.name, k, g.want)
		}
	}
}

// A span-recording replay in which every job records zero spans still
// materializes non-nil empty slices; the entry format must round-trip
// that shape (flagSpans follows slice materialization, not counts) so
// the cached==fresh DeepEqual invariant holds at the edge.
func TestEncodeDecodeZeroSpanSlices(t *testing.T) {
	res := &engine.Result{
		Jobs: []engine.JobOutcome{
			{ID: 0, Name: "a", Finish: 1, MapSpans: []engine.Span{}, ReduceSpans: []engine.Span{}},
			{ID: 1, Name: "b", Finish: 2, MapSpans: []engine.Span{}, ReduceSpans: []engine.Span{}},
		},
		Makespan: 2,
	}
	k := Key{Hi: 3, Lo: 9}
	img, err := Encode(k, res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(img, k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("zero-span slices not round-tripped: got %+v", got.Jobs)
	}
	for i := range got.Jobs {
		if got.Jobs[i].MapSpans == nil || got.Jobs[i].ReduceSpans == nil {
			t.Fatalf("job %d decoded nil span slices; fresh result holds non-nil empty ones", i)
		}
	}
}

func TestMemoryTierLRU(t *testing.T) {
	// Budget small enough that only a handful of entries fit.
	cfg := engine.DefaultConfig()
	res, h := testResult(t, 20, cfg, sched.FIFO{})
	img, _ := Encode(Key{}, res)
	perEntry := int64(len(img)) + entryOverhead

	c := New(Options{MemBytes: perEntry * numShards * 2}) // ~2 per shard
	var keys []Key
	for i := 0; i < numShards*8; i++ {
		k, _ := KeyFor(h+uint64(i), cfg, sched.FIFO{})
		c.Put(k, res)
		keys = append(keys, k)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions, stats %+v", st)
	}
	if st.MemBytes > perEntry*numShards*2 {
		t.Fatalf("budget exceeded: %d resident > %d", st.MemBytes, perEntry*numShards*2)
	}
	// Most-recent insertions should still be resident; evicted keys miss.
	if _, ok := c.Get(keys[len(keys)-1]); !ok {
		t.Error("most recent entry evicted")
	}
	hits := 0
	for _, k := range keys {
		if _, ok := c.Get(k); ok {
			hits++
		}
	}
	if hits == 0 || hits == len(keys) {
		t.Fatalf("LRU kept %d/%d entries; expected a strict subset", hits, len(keys))
	}
}

// Overwriting a resident entry with a larger payload must run the same
// eviction loop as a fresh insert: without it a grown entry leaves the
// shard over its byte budget until some unrelated insert cleans up.
func TestOverwriteGrowthEvicts(t *testing.T) {
	cfg := engine.DefaultConfig()
	small, _ := testResult(t, 5, cfg, sched.FIFO{})
	large, h := testResult(t, 60, cfg, sched.FIFO{})
	smallImg, _ := Encode(Key{}, small)
	perSmall := int64(len(smallImg)) + entryOverhead

	// Budget: four small entries per shard.
	c := New(Options{MemBytes: perSmall * 4 * numShards})
	// Fill one shard with four small entries (same Lo → same shard).
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = Key{Hi: uint64(i), Lo: h << 4} // identical shard selector
		c.insert(keys[i], append([]byte(nil), smallImg...))
	}
	// Overwrite the last-touched key with a much larger payload.
	largeImg, err := Encode(keys[3], large)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(largeImg))+entryOverhead > c.perShard {
		t.Skip("large entry exceeds whole shard budget; sizes drifted")
	}
	c.insert(keys[3], largeImg)
	s := c.shardOf(keys[3])
	s.mu.Lock()
	bytes, entries := s.bytes, len(s.m)
	s.mu.Unlock()
	if bytes > c.perShard {
		t.Fatalf("shard %d bytes over budget %d after overwrite growth", bytes, c.perShard)
	}
	if entries == 4 {
		t.Fatal("overwrite growth evicted nothing, yet budget was exceeded before")
	}
	if st := c.Stats(); st.Evictions == 0 {
		t.Fatalf("eviction counter not advanced: %+v", st)
	}
	// The overwritten entry itself must survive and serve the new bytes.
	if got, ok := c.Get(keys[3]); !ok || len(got.Jobs) != len(large.Jobs) {
		t.Fatalf("overwritten entry lost or stale (ok=%v)", ok)
	}
}

func TestDiskTierRoundtripAndPromotion(t *testing.T) {
	dir := t.TempDir()
	cfg := engine.DefaultConfig()
	res, h := testResult(t, 25, cfg, sched.Fair{})
	k, _ := KeyFor(h, cfg, sched.Fair{})

	c1 := New(Options{Dir: dir})
	c1.Put(k, res)
	if n, bytes, err := c1.DiskInfo(); err != nil || n != 1 || bytes == 0 {
		t.Fatalf("DiskInfo = %d entries %d bytes, err %v", n, bytes, err)
	}

	// A fresh cache over the same dir: memory cold, must hit from disk
	// and promote.
	c2 := New(Options{Dir: dir})
	got, ok := c2.Get(k)
	if !ok {
		t.Fatal("disk tier miss")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatal("disk hit differs from original")
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.MemEntries != 1 {
		t.Fatalf("expected disk hit + promotion, stats %+v", st)
	}
	// Second Get serves from memory.
	if _, ok := c2.Get(k); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Hits != 2 {
		t.Fatalf("promotion not serving from memory: %+v", st)
	}

	if err := c2.Clear(); err != nil {
		t.Fatal(err)
	}
	if n, _, _ := c2.DiskInfo(); n != 0 {
		t.Fatalf("Clear left %d disk entries", n)
	}
	if _, ok := c2.Get(k); ok {
		t.Fatal("entry survived Clear")
	}
}

// TestCorruptEntryFallsBack pins the acceptance bar: flipped bytes,
// truncation, or garbage on either tier is a silent miss, never an
// error or a wrong result.
func TestCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	cfg := engine.DefaultConfig()
	cfg.RecordSpans = true
	res, h := testResult(t, 25, cfg, sched.MinEDF{})
	k, _ := KeyFor(h, cfg, sched.MinEDF{})

	fresh := func() *Cache {
		c := New(Options{Dir: dir})
		c.Put(k, res)
		return c
	}
	path := filepath.Join(dir, k.String()+diskExt)
	fresh() // seed the disk tier so there is an entry image to corrupt

	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func() []byte{
		"empty":           func() []byte { return nil },
		"garbage":         func() []byte { return []byte(strings.Repeat("x", 300)) },
		"truncated-half":  func() []byte { return append([]byte(nil), img[:len(img)/2]...) },
		"header-bit-flip": func() []byte { m := append([]byte(nil), img...); m[9] ^= 0xff; return m },
		"payload-flip": func() []byte {
			m := append([]byte(nil), img...)
			m[entryHeaderSize+3] ^= 0x40
			return m
		},
		"bad-version": func() []byte { m := append([]byte(nil), img...); m[4] = 0x7f; return m },
	}
	for name, mk := range corruptions {
		c := fresh() // memory holds a good copy; poison both tiers
		if err := os.WriteFile(path, mk(), 0o644); err != nil {
			t.Fatal(err)
		}
		// Poison the memory tier too by inserting the corrupt bytes.
		c.insert(k, mk())
		if _, ok := c.Get(k); ok {
			t.Errorf("%s: corrupt entry served as a hit", name)
		}
		if st := c.Stats(); st.Misses != 1 {
			t.Errorf("%s: corruption must count as a miss, stats %+v", name, st)
		}
		// The poisoned file must have been removed so Put can heal it.
		if _, err := os.Stat(path); err == nil && name != "empty" {
			t.Errorf("%s: corrupt disk entry not removed", name)
		}
		os.Remove(path)
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(Key{1, 2}); ok {
		t.Fatal("nil cache hit")
	}
	c.Put(Key{1, 2}, &engine.Result{}) // must not panic
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats %+v", st)
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
}

// poolThenStream reads from pool until streaming is set, then from
// stream: the template pool and the job stream of a trace come from
// separate seeds, as in the end-to-end sweep benchmark.
type poolThenStream struct {
	pool, stream rand.Source64
	streaming    bool
}

func (p *poolThenStream) cur() rand.Source64 {
	if p.streaming {
		return p.stream
	}
	return p.pool
}

func (p *poolThenStream) Int63() int64    { return p.cur().Int63() }
func (p *poolThenStream) Uint64() uint64  { return p.cur().Uint64() }
func (p *poolThenStream) Seed(seed int64) { p.cur().Seed(seed) }

// sweepBenchTrace is the end-to-end sweep benchmark's seed-1 input: 20k
// multi-tenant jobs over a 256-template pool, 70% with deadlines.
func sweepBenchTrace(t *testing.T) *trace.Trace {
	t.Helper()
	src := &poolThenStream{pool: rand.NewSource(1).(rand.Source64), stream: rand.NewSource(1).(rand.Source64)}
	s, err := synth.NewStream(synth.StreamConfig{
		Name: "sweep", Jobs: 20_000, MeanInterArrival: 10,
		TemplatePool: 256, DeadlineFraction: 0.7, DeadlineSlack: 900,
		Shapes: []synth.WeightedShape{{Shape: synth.MultiTenantShape(), Weight: 1}},
	}, rand.New(src))
	if err != nil {
		t.Fatal(err)
	}
	src.streaming = true
	tr, err := s.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSweepGridSpreadsAcrossShards replays the refine-the-grid study's
// cache traffic: a square sweep over {32,64,128,256} slots, then the
// refined {32,48,64,96,128,192,256}, through one default-budget cache.
// The grid's keys must spread over the shards, and the refined pass
// must find all four cells the first pass stored. Keys differing only
// in their slot counts once all landed in a single shard, whose
// sixteenth of the budget could not hold four 20k-job results.
func TestSweepGridSpreadsAcrossShards(t *testing.T) {
	tr := sweepBenchTrace(t)
	h := tr.ContentHash()
	policy := sched.Indexed(sched.MinEDF{})
	key := func(slots int) Key {
		cfg := engine.DefaultConfig()
		cfg.MapSlots, cfg.ReduceSlots = slots, slots
		k, ok := KeyFor(h, cfg, policy)
		if !ok {
			t.Fatal("Indexed(MinEDF) must fingerprint")
		}
		return k
	}
	coarse := []int{32, 64, 128, 256}
	refined := []int{32, 48, 64, 96, 128, 192, 256}

	c := New(Options{})
	shards := map[*shard]bool{}
	for _, slots := range refined {
		shards[c.shardOf(key(slots))] = true
	}
	if len(shards) < 4 {
		t.Fatalf("the 7 grid keys fall into %d shards, want >= 4", len(shards))
	}

	// A 20k-job result stands in for each cell's replay: the encoded
	// size, not the values, decides what the budget holds.
	res := &engine.Result{Jobs: make([]engine.JobOutcome, len(tr.Jobs))}
	for i, j := range tr.Jobs {
		res.Jobs[i] = engine.JobOutcome{
			ID: j.ID, Name: j.Name, Arrival: j.Arrival, Deadline: j.Deadline,
			Finish: j.Arrival + float64(i%977), MapStageEnd: j.Arrival + float64(i%613),
			MapTasksRun: j.Template.NumMaps, ReduceTasksRun: j.Template.NumReduces,
			Events: 3 + 4*(j.Template.NumMaps+j.Template.NumReduces),
		}
	}
	for _, slots := range coarse {
		c.Put(key(slots), res)
	}
	hits := 0
	for _, slots := range refined {
		if _, ok := c.Get(key(slots)); ok {
			hits++
		} else {
			c.Put(key(slots), res)
		}
	}
	if hits != len(coarse) {
		t.Fatalf("refined pass hit %d of the %d revisited cells (stats %+v)", hits, len(coarse), c.Stats())
	}
}
