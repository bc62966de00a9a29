package sched

// This file adds the optional sub-linear fast path to the paper's
// narrow policy interface (DESIGN.md §11). The reference policies in
// sched.go / extra.go nominate one job per call with an O(active-jobs)
// argmin scan; the engine consults them once per free slot after every
// event, which is O(slots × jobs) per event — quadratic at multi-tenant
// scale. A BatchPolicy instead maintains an incrementally updated
// Tournament index (see index.go) keyed by the policy's ordering and
// hands out all free slots in one call. The reference scan stays the
// correctness oracle: the engine's differential suite replays every
// policy on both paths and asserts byte-identical outcomes.

// BatchPolicy is the optional engine fast path. The engine detects it
// with one type assertion at Reset and then:
//
//   - routes job lifecycle through OnJobAdmit / OnJobDepart instead of
//     the ArrivalAware hook (OnJobAdmit subsumes it — IndexedMinEDF
//     sizes its allocation there exactly like MinEDF.OnJobArrival);
//   - calls OnJobUpdate after every engine-side mutation of a job's
//     scheduler-visible counters (task completions, preemption kills),
//     so the index never goes stale;
//   - replaces the per-slot ChooseNext* loop with one AssignMapSlots /
//     AssignReduceSlots call per allocation round;
//   - calls ResetQueue when the engine is reset, so pooled engine reuse
//     re-arms the index along with everything else.
//
// Assign* returns the chosen queue positions in assignment order and
// must increment the nominated job's ScheduledMaps / ScheduledReduces
// itself for each grant — exactly the state change the engine applies
// between successive ChooseNext* calls on the scan path — so that later
// grants in the same batch see the earlier ones. The returned slice is
// valid until the next Assign* call on the same policy.
//
// The hooks are deliberately *not* named OnJobArrival: a BatchPolicy
// must not implement ArrivalAware, so that callers which know only the
// paper's narrow interface (the cluster emulator) never feed a partial
// view into the index. For such callers the indexed policies fall back
// to the reference scan (see chooseMap/chooseReduce) and remain
// correct, just not sub-linear.
//
// Rebuild contract (the engine's fork path, DESIGN.md §12): calling
// ResetQueue and then OnJobAdmit for every live job in queue order —
// even jobs mid-flight, with nonzero progress counters — must yield an
// index that answers every Choose*/Assign* query exactly like the
// instance that was maintained incrementally through the full hook
// stream. This holds for all built-in indexed policies because admit
// derives everything from the job's current JobInfo: sizing
// (IndexedMinEDF) is a pure function of Arrival/Deadline/Profile/slot
// totals, queue loads (IndexedCapacity) fold in the job's current
// running counts, and tournament answers are insertion-order
// independent (comparators break all ties down to job ID). Custom
// BatchPolicy implementations must preserve this property — admit
// hooks may not assume a job is freshly arrived — or forked engines
// will diverge from scratch replays. TestIndexRebuildEquivalence pins
// it; the engine's fork differential suite enforces it end to end.
//
// A BatchPolicy carries per-engine mutable state: never share one
// instance across concurrent engines (use SweepConfig.PolicyFactory).
type BatchPolicy interface {
	Policy

	OnJobAdmit(j *JobInfo, totalMapSlots, totalReduceSlots int)
	OnJobDepart(j *JobInfo)
	OnJobUpdate(j *JobInfo)
	ResetQueue()

	AssignMapSlots(q []*JobInfo, n int) []int
	AssignReduceSlots(q []*JobInfo, n int) []int
}

// Indexed returns the sub-linear indexed equivalent of a built-in
// policy: FIFO, MaxEDF, MinEDF (any estimator), Fair, and Capacity map
// to their BatchPolicy counterparts; any other policy (DynamicPriority,
// user-defined) is returned unchanged and keeps the reference scan
// path. The returned policy is stateful — one instance per engine.
func Indexed(p Policy) Policy {
	switch pp := p.(type) {
	case FIFO:
		return NewIndexedFIFO()
	case MaxEDF:
		return NewIndexedMaxEDF()
	case MinEDF:
		return NewIndexedMinEDF(pp.Estimate)
	case Fair:
		return NewIndexedFair()
	case Capacity:
		return NewIndexedCapacity(pp)
	default:
		return p
	}
}

// queueMirror tracks each indexed job's position in the engine's active
// queue, mirroring the engine's append-on-arrival / ordered-removal
// discipline so Assign* can return queue indices without scanning.
//
// Every admit takes the next admission ordinal; a job's queue index is
// the number of live jobs with a smaller ordinal, which a Fenwick tree
// (binary indexed tree) over the ordinals answers in O(log n). A
// departure is then one map delete and one Fenwick update, not a rewrite
// of every later job's position. Departed ordinals stay as nil holes
// until the dead entries outnumber the live ones; compact then renumbers
// the live jobs in order, so memory stays O(peak live jobs) and the
// renumbering is amortized O(1) per departure. head and the trimmed tail
// keep ords[head] and ords[len(ords)-1] live, the two ends synced checks.
type queueMirror struct {
	ords    []*JobInfo  // admission ordinal -> job; nil once departed
	ordOf   map[int]int // live job ID -> admission ordinal
	fen     []int32     // Fenwick tree over ords, 1-based; len-1 is its capacity
	head    int         // first live ordinal (len(ords) when empty)
	live    int
	scratch []int
}

// minMirrorCap is the smallest Fenwick capacity; compaction only runs
// on slices at least this long.
const minMirrorCap = 64

// admit appends j to the mirrored queue. j must not already be live.
func (m *queueMirror) admit(j *JobInfo) {
	if m.ordOf == nil {
		m.ordOf = make(map[int]int)
	}
	ord := len(m.ords)
	m.ords = append(m.ords, j)
	if ord+1 < len(m.fen) {
		m.add(ord, 1)
	} else {
		m.rebuild(max(minMirrorCap, 2*(len(m.fen)-1)))
	}
	m.ordOf[j.ID] = ord
	m.live++
}

// depart removes j, keeping every other job's relative order; unknown
// jobs are a no-op.
func (m *queueMirror) depart(j *JobInfo) {
	ord, ok := m.ordOf[j.ID]
	if !ok {
		return
	}
	delete(m.ordOf, j.ID)
	m.ords[ord] = nil
	m.add(ord, -1)
	m.live--
	for m.head < len(m.ords) && m.ords[m.head] == nil {
		m.head++
	}
	for n := len(m.ords); n > m.head && m.ords[n-1] == nil; n-- {
		m.ords = m.ords[:n-1]
	}
	if m.live == 0 {
		m.ords, m.head = m.ords[:0], 0
	} else if n := len(m.ords); n >= minMirrorCap && n-m.live > m.live {
		m.compact()
	}
}

// compact renumbers the live jobs 0..live-1 in queue order and rebuilds
// the Fenwick tree at a capacity fitted to them.
func (m *queueMirror) compact() {
	k := 0
	for _, j := range m.ords[m.head:] {
		if j != nil {
			m.ords[k] = j
			m.ordOf[j.ID] = k
			k++
		}
	}
	clear(m.ords[k:])
	m.ords, m.head = m.ords[:k], 0
	m.rebuild(max(minMirrorCap, 2*k))
}

// rebuild sizes the Fenwick tree for ordinals 0..capacity-1 and fills it
// from ords in O(capacity), reusing its backing array when it fits.
func (m *queueMirror) rebuild(capacity int) {
	if cap(m.fen) > capacity {
		m.fen = m.fen[:capacity+1]
		clear(m.fen)
	} else {
		m.fen = make([]int32, capacity+1)
	}
	for i, j := range m.ords {
		if j != nil {
			m.fen[i+1]++
		}
	}
	for i := 1; i <= capacity; i++ {
		if p := i + i&-i; p <= capacity {
			m.fen[p] += m.fen[i]
		}
	}
}

// add adds d to ordinal ord's live count.
func (m *queueMirror) add(ord int, d int32) {
	for i := ord + 1; i < len(m.fen); i += i & -i {
		m.fen[i] += d
	}
}

// index returns j's position in the mirrored queue: the number of live
// jobs admitted before it. j must be live.
func (m *queueMirror) index(j *JobInfo) int {
	n := int32(0)
	for i := m.ordOf[j.ID]; i > 0; i -= i & -i {
		n += m.fen[i]
	}
	return int(n)
}

func (m *queueMirror) reset() {
	clear(m.ords)
	m.ords = m.ords[:0]
	clear(m.ordOf)
	clear(m.fen)
	m.head, m.live = 0, 0
	m.scratch = m.scratch[:0]
}

// synced reports whether the mirror matches the queue the caller passed:
// true only when every lifecycle hook has been delivered, i.e. the
// caller is the engine's fast path. Callers that bypass the hooks (the
// cluster emulator's masked queues, hand-built test queues) fail this
// check and get the reference scan instead.
func (m *queueMirror) synced(q []*JobInfo) bool {
	if m.live != len(q) {
		return false
	}
	// Cheap spot checks instead of a full compare: the engine appends on
	// arrival and removes in order, so ends matching implies the rest.
	if n := len(q); n > 0 && (q[0] != m.ords[m.head] || q[n-1] != m.ords[len(m.ords)-1]) {
		return false
	}
	return true
}

// indexedPair is one map tournament plus one reduce tournament over the
// mirrored queue — the whole index for every single-queue policy.
type indexedPair struct {
	queueMirror
	mapT, redT *Tournament
}

func newIndexedPair(mapBetter, redBetter func(a, b *JobInfo) bool) indexedPair {
	return indexedPair{
		mapT: NewTournament(mapBetter, (*JobInfo).wantsMapSlot),
		redT: NewTournament(redBetter, (*JobInfo).wantsReduceSlot),
	}
}

func (ix *indexedPair) admitJob(j *JobInfo) {
	ix.admit(j)
	ix.mapT.Add(j)
	ix.redT.Add(j)
}

func (ix *indexedPair) departJob(j *JobInfo) {
	ix.depart(j)
	ix.mapT.Remove(j)
	ix.redT.Remove(j)
}

func (ix *indexedPair) updateJob(j *JobInfo) {
	ix.mapT.Fix(j)
	ix.redT.Fix(j)
}

func (ix *indexedPair) resetQueue() {
	ix.reset()
	ix.mapT.Reset()
	ix.redT.Reset()
}

func (ix *indexedPair) chooseMap(q []*JobInfo, fallback Policy) int {
	if !ix.synced(q) {
		return fallback.ChooseNextMapTask(q)
	}
	j := ix.mapT.Best()
	if j == nil {
		return -1
	}
	return ix.index(j)
}

func (ix *indexedPair) chooseReduce(q []*JobInfo, fallback Policy) int {
	if !ix.synced(q) {
		return fallback.ChooseNextReduceTask(q)
	}
	j := ix.redT.Best()
	if j == nil {
		return -1
	}
	return ix.index(j)
}

func (ix *indexedPair) assignMaps(q []*JobInfo, n int, fallback Policy) []int {
	ix.scratch = ix.scratch[:0]
	if !ix.synced(q) {
		for len(ix.scratch) < n {
			idx := fallback.ChooseNextMapTask(q)
			if idx < 0 {
				break
			}
			q[idx].ScheduledMaps++
			ix.scratch = append(ix.scratch, idx)
		}
		return ix.scratch
	}
	for len(ix.scratch) < n {
		j := ix.mapT.Best()
		if j == nil {
			break
		}
		j.ScheduledMaps++
		ix.mapT.Fix(j) // a map grant never changes reduce eligibility or keys
		ix.scratch = append(ix.scratch, ix.index(j))
	}
	return ix.scratch
}

func (ix *indexedPair) assignReduces(q []*JobInfo, n int, fallback Policy) []int {
	ix.scratch = ix.scratch[:0]
	if !ix.synced(q) {
		for len(ix.scratch) < n {
			idx := fallback.ChooseNextReduceTask(q)
			if idx < 0 {
				break
			}
			q[idx].ScheduledReduces++
			ix.scratch = append(ix.scratch, idx)
		}
		return ix.scratch
	}
	for len(ix.scratch) < n {
		j := ix.redT.Best()
		if j == nil {
			break
		}
		j.ScheduledReduces++
		ix.redT.Fix(j)
		ix.scratch = append(ix.scratch, ix.index(j))
	}
	return ix.scratch
}

// IndexedFIFO is FIFO over an arrival-ordered tournament. Build with
// NewIndexedFIFO; one instance per engine.
type IndexedFIFO struct{ ix indexedPair }

// NewIndexedFIFO returns the indexed FIFO fast path.
func NewIndexedFIFO() *IndexedFIFO {
	return &IndexedFIFO{ix: newIndexedPair(byArrival, byArrival)}
}

// Name implements Policy (same name as the reference scan — it is the
// same policy, only the lookup structure differs).
func (p *IndexedFIFO) Name() string { return FIFO{}.Name() }

// ChooseNextMapTask implements Policy.
func (p *IndexedFIFO) ChooseNextMapTask(q []*JobInfo) int { return p.ix.chooseMap(q, FIFO{}) }

// ChooseNextReduceTask implements Policy.
func (p *IndexedFIFO) ChooseNextReduceTask(q []*JobInfo) int { return p.ix.chooseReduce(q, FIFO{}) }

// OnJobAdmit implements BatchPolicy.
func (p *IndexedFIFO) OnJobAdmit(j *JobInfo, _, _ int) { p.ix.admitJob(j) }

// OnJobDepart implements BatchPolicy.
func (p *IndexedFIFO) OnJobDepart(j *JobInfo) { p.ix.departJob(j) }

// OnJobUpdate implements BatchPolicy.
func (p *IndexedFIFO) OnJobUpdate(j *JobInfo) { p.ix.updateJob(j) }

// ResetQueue implements BatchPolicy.
func (p *IndexedFIFO) ResetQueue() { p.ix.resetQueue() }

// AssignMapSlots implements BatchPolicy.
func (p *IndexedFIFO) AssignMapSlots(q []*JobInfo, n int) []int {
	return p.ix.assignMaps(q, n, FIFO{})
}

// AssignReduceSlots implements BatchPolicy.
func (p *IndexedFIFO) AssignReduceSlots(q []*JobInfo, n int) []int {
	return p.ix.assignReduces(q, n, FIFO{})
}

// IndexedMaxEDF is MaxEDF over a deadline-ordered tournament.
type IndexedMaxEDF struct{ ix indexedPair }

// NewIndexedMaxEDF returns the indexed MaxEDF fast path.
func NewIndexedMaxEDF() *IndexedMaxEDF {
	return &IndexedMaxEDF{ix: newIndexedPair(byDeadline, byDeadline)}
}

// Name implements Policy.
func (p *IndexedMaxEDF) Name() string { return MaxEDF{}.Name() }

// ChooseNextMapTask implements Policy.
func (p *IndexedMaxEDF) ChooseNextMapTask(q []*JobInfo) int { return p.ix.chooseMap(q, MaxEDF{}) }

// ChooseNextReduceTask implements Policy.
func (p *IndexedMaxEDF) ChooseNextReduceTask(q []*JobInfo) int { return p.ix.chooseReduce(q, MaxEDF{}) }

// OnJobAdmit implements BatchPolicy.
func (p *IndexedMaxEDF) OnJobAdmit(j *JobInfo, _, _ int) { p.ix.admitJob(j) }

// OnJobDepart implements BatchPolicy.
func (p *IndexedMaxEDF) OnJobDepart(j *JobInfo) { p.ix.departJob(j) }

// OnJobUpdate implements BatchPolicy.
func (p *IndexedMaxEDF) OnJobUpdate(j *JobInfo) { p.ix.updateJob(j) }

// ResetQueue implements BatchPolicy.
func (p *IndexedMaxEDF) ResetQueue() { p.ix.resetQueue() }

// AssignMapSlots implements BatchPolicy.
func (p *IndexedMaxEDF) AssignMapSlots(q []*JobInfo, n int) []int {
	return p.ix.assignMaps(q, n, MaxEDF{})
}

// AssignReduceSlots implements BatchPolicy.
func (p *IndexedMaxEDF) AssignReduceSlots(q []*JobInfo, n int) []int {
	return p.ix.assignReduces(q, n, MaxEDF{})
}

// IndexedMinEDF is MinEDF over a deadline-ordered tournament: the
// ARIA-model allocation sizing happens in OnJobAdmit exactly as the
// reference MinEDF does in OnJobArrival; the WantedMaps/WantedReduces
// caps flow into eligibility through wantsMapSlot/wantsReduceSlot, so
// the tournament's bitset enforces them.
type IndexedMinEDF struct {
	est Estimator
	ix  indexedPair
}

// NewIndexedMinEDF returns the indexed MinEDF fast path for an
// estimator (EstimatorAvg is the paper default).
func NewIndexedMinEDF(est Estimator) *IndexedMinEDF {
	return &IndexedMinEDF{est: est, ix: newIndexedPair(byDeadline, byDeadline)}
}

// scan returns the reference policy this index mirrors.
func (p *IndexedMinEDF) scan() MinEDF { return MinEDF{Estimate: p.est} }

// Name implements Policy.
func (p *IndexedMinEDF) Name() string { return p.scan().Name() }

// ChooseNextMapTask implements Policy.
func (p *IndexedMinEDF) ChooseNextMapTask(q []*JobInfo) int { return p.ix.chooseMap(q, p.scan()) }

// ChooseNextReduceTask implements Policy.
func (p *IndexedMinEDF) ChooseNextReduceTask(q []*JobInfo) int { return p.ix.chooseReduce(q, p.scan()) }

// OnJobAdmit implements BatchPolicy: size the minimal allocation, then
// index the job.
func (p *IndexedMinEDF) OnJobAdmit(j *JobInfo, totalMapSlots, totalReduceSlots int) {
	p.scan().OnJobArrival(j, totalMapSlots, totalReduceSlots)
	p.ix.admitJob(j)
}

// OnJobDepart implements BatchPolicy.
func (p *IndexedMinEDF) OnJobDepart(j *JobInfo) { p.ix.departJob(j) }

// OnJobUpdate implements BatchPolicy.
func (p *IndexedMinEDF) OnJobUpdate(j *JobInfo) { p.ix.updateJob(j) }

// ResetQueue implements BatchPolicy.
func (p *IndexedMinEDF) ResetQueue() { p.ix.resetQueue() }

// AssignMapSlots implements BatchPolicy.
func (p *IndexedMinEDF) AssignMapSlots(q []*JobInfo, n int) []int {
	return p.ix.assignMaps(q, n, p.scan())
}

// AssignReduceSlots implements BatchPolicy.
func (p *IndexedMinEDF) AssignReduceSlots(q []*JobInfo, n int) []int {
	return p.ix.assignReduces(q, n, p.scan())
}

// fairMapBetter orders by fewest running maps, then arrival, then ID —
// the Fair scan's comparator. The running count is fully dynamic; every
// grant and completion reaches the tournament through Fix.
func fairMapBetter(a, b *JobInfo) bool {
	if ra, rb := a.RunningMaps(), b.RunningMaps(); ra != rb {
		return ra < rb
	}
	return byArrival(a, b)
}

func fairReduceBetter(a, b *JobInfo) bool {
	if ra, rb := a.RunningReduces(), b.RunningReduces(); ra != rb {
		return ra < rb
	}
	return byArrival(a, b)
}

// IndexedFair is the Fair scheduler over a running-count-ordered
// tournament.
type IndexedFair struct{ ix indexedPair }

// NewIndexedFair returns the indexed Fair fast path.
func NewIndexedFair() *IndexedFair {
	return &IndexedFair{ix: newIndexedPair(fairMapBetter, fairReduceBetter)}
}

// Name implements Policy.
func (p *IndexedFair) Name() string { return Fair{}.Name() }

// ChooseNextMapTask implements Policy.
func (p *IndexedFair) ChooseNextMapTask(q []*JobInfo) int { return p.ix.chooseMap(q, Fair{}) }

// ChooseNextReduceTask implements Policy.
func (p *IndexedFair) ChooseNextReduceTask(q []*JobInfo) int { return p.ix.chooseReduce(q, Fair{}) }

// OnJobAdmit implements BatchPolicy.
func (p *IndexedFair) OnJobAdmit(j *JobInfo, _, _ int) { p.ix.admitJob(j) }

// OnJobDepart implements BatchPolicy.
func (p *IndexedFair) OnJobDepart(j *JobInfo) { p.ix.departJob(j) }

// OnJobUpdate implements BatchPolicy.
func (p *IndexedFair) OnJobUpdate(j *JobInfo) { p.ix.updateJob(j) }

// ResetQueue implements BatchPolicy.
func (p *IndexedFair) ResetQueue() { p.ix.resetQueue() }

// AssignMapSlots implements BatchPolicy.
func (p *IndexedFair) AssignMapSlots(q []*JobInfo, n int) []int {
	return p.ix.assignMaps(q, n, Fair{})
}

// AssignReduceSlots implements BatchPolicy.
func (p *IndexedFair) AssignReduceSlots(q []*JobInfo, n int) []int {
	return p.ix.assignReduces(q, n, Fair{})
}

// IndexedCapacity is the Capacity scheduler with one arrival-ordered
// tournament per queue plus incrementally maintained per-queue running
// counts. Slot assignment picks the most underserved queue (smallest
// running/share ratio, ties by the queue head's arrival order — the
// scan's exact tie-break) and takes that queue's FIFO head: O(queues +
// log jobs) per slot instead of O(jobs).
//
// The job→queue mapping is cached at admit time, so a custom QueueOf
// must be a pure function of the job (the scan re-evaluates it per
// decision; any sane assignment — and the default ID-modulo one — is
// stable, making the paths identical).
type IndexedCapacity struct {
	cfg Capacity // queue mapping + fallback scan

	queueMirror
	mapTs, redTs     []*Tournament
	mapLoad, redLoad []int

	// jobQueue / lastRun cache each job's queue and the running counts
	// last folded into the loads, so updates are O(1) deltas.
	jobQueue map[int]int
	lastRunM map[int]int
	lastRunR map[int]int
}

// NewIndexedCapacity returns the indexed Capacity fast path for the
// given queue configuration.
func NewIndexedCapacity(cfg Capacity) *IndexedCapacity {
	nq := len(cfg.Shares)
	if nq == 0 {
		nq = 1
	}
	p := &IndexedCapacity{
		cfg:      cfg,
		mapTs:    make([]*Tournament, nq),
		redTs:    make([]*Tournament, nq),
		mapLoad:  make([]int, nq),
		redLoad:  make([]int, nq),
		jobQueue: make(map[int]int),
		lastRunM: make(map[int]int),
		lastRunR: make(map[int]int),
	}
	for i := range p.mapTs {
		p.mapTs[i] = NewTournament(byArrival, (*JobInfo).wantsMapSlot)
		p.redTs[i] = NewTournament(byArrival, (*JobInfo).wantsReduceSlot)
	}
	return p
}

// Name implements Policy.
func (p *IndexedCapacity) Name() string { return p.cfg.Name() }

// share returns queue qi's normalizing share, matching the scan's
// guard against nonpositive shares.
func (p *IndexedCapacity) share(qi int) float64 {
	if len(p.cfg.Shares) == 0 {
		return 1
	}
	if s := p.cfg.Shares[qi]; s > 0 {
		return s
	}
	return 1e-9
}

// bestQueue returns the winning (queue, job) under the scan's ordering:
// smallest running/share ratio among queues with an eligible job,
// breaking ratio ties by the candidate jobs' arrival order.
func (p *IndexedCapacity) bestQueue(ts []*Tournament, load []int) (int, *JobInfo) {
	bestQ, bestJ := -1, (*JobInfo)(nil)
	var bestRatio float64
	for qi, t := range ts {
		j := t.Best()
		if j == nil {
			continue
		}
		ratio := float64(load[qi]) / p.share(qi)
		if bestJ == nil || ratio < bestRatio ||
			(ratio == bestRatio && byArrival(j, bestJ)) {
			bestQ, bestJ, bestRatio = qi, j, ratio
		}
	}
	return bestQ, bestJ
}

// ChooseNextMapTask implements Policy.
func (p *IndexedCapacity) ChooseNextMapTask(q []*JobInfo) int {
	if !p.synced(q) {
		return p.cfg.ChooseNextMapTask(q)
	}
	if _, j := p.bestQueue(p.mapTs, p.mapLoad); j != nil {
		return p.index(j)
	}
	return -1
}

// ChooseNextReduceTask implements Policy.
func (p *IndexedCapacity) ChooseNextReduceTask(q []*JobInfo) int {
	if !p.synced(q) {
		return p.cfg.ChooseNextReduceTask(q)
	}
	if _, j := p.bestQueue(p.redTs, p.redLoad); j != nil {
		return p.index(j)
	}
	return -1
}

// OnJobAdmit implements BatchPolicy.
func (p *IndexedCapacity) OnJobAdmit(j *JobInfo, _, _ int) {
	p.admit(j)
	qi := p.cfg.queue(j)
	p.jobQueue[j.ID] = qi
	runM, runR := j.RunningMaps(), j.RunningReduces()
	p.lastRunM[j.ID], p.lastRunR[j.ID] = runM, runR
	p.mapLoad[qi] += runM
	p.redLoad[qi] += runR
	p.mapTs[qi].Add(j)
	p.redTs[qi].Add(j)
}

// OnJobDepart implements BatchPolicy.
func (p *IndexedCapacity) OnJobDepart(j *JobInfo) {
	qi, ok := p.jobQueue[j.ID]
	if !ok {
		return
	}
	p.depart(j)
	p.mapLoad[qi] -= p.lastRunM[j.ID]
	p.redLoad[qi] -= p.lastRunR[j.ID]
	delete(p.jobQueue, j.ID)
	delete(p.lastRunM, j.ID)
	delete(p.lastRunR, j.ID)
	p.mapTs[qi].Remove(j)
	p.redTs[qi].Remove(j)
}

// OnJobUpdate implements BatchPolicy.
func (p *IndexedCapacity) OnJobUpdate(j *JobInfo) {
	qi, ok := p.jobQueue[j.ID]
	if !ok {
		return
	}
	if runM := j.RunningMaps(); runM != p.lastRunM[j.ID] {
		p.mapLoad[qi] += runM - p.lastRunM[j.ID]
		p.lastRunM[j.ID] = runM
	}
	if runR := j.RunningReduces(); runR != p.lastRunR[j.ID] {
		p.redLoad[qi] += runR - p.lastRunR[j.ID]
		p.lastRunR[j.ID] = runR
	}
	p.mapTs[qi].Fix(j)
	p.redTs[qi].Fix(j)
}

// ResetQueue implements BatchPolicy.
func (p *IndexedCapacity) ResetQueue() {
	p.reset()
	for i := range p.mapTs {
		p.mapTs[i].Reset()
		p.redTs[i].Reset()
		p.mapLoad[i] = 0
		p.redLoad[i] = 0
	}
	clear(p.jobQueue)
	clear(p.lastRunM)
	clear(p.lastRunR)
}

// AssignMapSlots implements BatchPolicy.
func (p *IndexedCapacity) AssignMapSlots(q []*JobInfo, n int) []int {
	p.scratch = p.scratch[:0]
	if !p.synced(q) {
		for len(p.scratch) < n {
			idx := p.cfg.ChooseNextMapTask(q)
			if idx < 0 {
				break
			}
			q[idx].ScheduledMaps++
			p.scratch = append(p.scratch, idx)
		}
		return p.scratch
	}
	for len(p.scratch) < n {
		qi, j := p.bestQueue(p.mapTs, p.mapLoad)
		if j == nil {
			break
		}
		j.ScheduledMaps++
		p.mapLoad[qi]++ // one more running map in the winning queue
		p.lastRunM[j.ID]++
		p.mapTs[qi].Fix(j)
		p.scratch = append(p.scratch, p.index(j))
	}
	return p.scratch
}

// AssignReduceSlots implements BatchPolicy.
func (p *IndexedCapacity) AssignReduceSlots(q []*JobInfo, n int) []int {
	p.scratch = p.scratch[:0]
	if !p.synced(q) {
		for len(p.scratch) < n {
			idx := p.cfg.ChooseNextReduceTask(q)
			if idx < 0 {
				break
			}
			q[idx].ScheduledReduces++
			p.scratch = append(p.scratch, idx)
		}
		return p.scratch
	}
	for len(p.scratch) < n {
		qi, j := p.bestQueue(p.redTs, p.redLoad)
		if j == nil {
			break
		}
		j.ScheduledReduces++
		p.redLoad[qi]++
		p.lastRunR[j.ID]++
		p.redTs[qi].Fix(j)
		p.scratch = append(p.scratch, p.index(j))
	}
	return p.scratch
}
