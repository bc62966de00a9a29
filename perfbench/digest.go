package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"simmr/pkg/simmr"
)

// digester folds simulated outputs into a SHA-256 over a fixed
// little-endian encoding: every float by its bit pattern, so a change
// in the last bit of any completion time changes the digest.
type digester struct {
	h   hash.Hash
	buf []byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
	if len(d.buf) >= 4096 {
		d.flush()
	}
}

func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digester) int(v int)     { d.u64(uint64(int64(v))) }

func (d *digester) str(s string) {
	d.int(len(s))
	d.flush()
	d.h.Write([]byte(s))
}

func (d *digester) flush() {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
}

func (d *digester) sum() string {
	d.flush()
	return hex.EncodeToString(d.h.Sum(nil)[:16])
}

// result folds a replay result: run totals and every JobOutcome field
// the engine fills without RecordSpans.
func (d *digester) result(r *simmr.ReplayResult) {
	d.u64(r.Events)
	d.f64(r.Makespan)
	d.int(len(r.Jobs))
	for i := range r.Jobs {
		j := &r.Jobs[i]
		d.int(j.ID)
		d.str(j.Name)
		d.f64(j.Arrival)
		d.f64(j.Finish)
		d.f64(j.Deadline)
		d.f64(j.MapStageEnd)
		d.int(j.MapTasksRun)
		d.int(j.ReduceTasksRun)
		d.int(j.PreemptedMaps)
		d.int(j.Events)
	}
}

// points folds one sweep pass.
func (d *digester) points(ps []simmr.SweepPoint) {
	d.int(len(ps))
	for _, p := range ps {
		d.int(p.Cell)
		d.int(p.MapSlots)
		d.int(p.ReduceSlots)
		d.f64(p.Makespan)
		d.f64(p.MeanCompletion)
		d.f64(p.MaxCompletion)
		d.int(p.DeadlinesMissed)
	}
}

// report folds an attribution report through its JSON encoding, the
// form `simmr trace explain -json` writes.
func (d *digester) report(r *simmr.AttrReport) error {
	d.flush()
	return r.WriteJSON(d.h)
}

// sweepPointOf condenses a plain replay into the sweep point
// CapacitySweep reports for the same cell: the reference side of the
// sweep gate, summed in job order exactly as the sweep does.
func sweepPointOf(cell, slots int, r *simmr.ReplayResult) simmr.SweepPoint {
	p := simmr.SweepPoint{Cell: cell, MapSlots: slots, ReduceSlots: slots, Makespan: r.Makespan}
	for _, j := range r.Jobs {
		ct := j.CompletionTime()
		p.MeanCompletion += ct
		p.MaxCompletion = max(p.MaxCompletion, ct)
		if j.ExceededDeadline() {
			p.DeadlinesMissed++
		}
	}
	if n := len(r.Jobs); n > 0 {
		p.MeanCompletion /= float64(n)
	}
	return p
}
