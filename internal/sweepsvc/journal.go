package sweepsvc

// The journal is the coordinator's idempotent-restart record and the fleet
// span log in one: a fleettrace.Record line per sweep submission and per
// scheduler transition of a point. On New the journal is replayed — points
// with a terminal record are rebuilt from the shared store by content
// address, the rest re-enter the queue — so a restarted coordinator never
// re-executes a point whose completion was journaled. Result payloads never
// live here; the store owns them.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"time"

	"flexsim/internal/api/specv1"
	"flexsim/internal/jsonlog"
	"flexsim/internal/obs/fleettrace"
)

// record is the one sink of a scheduler transition. It stamps rec, appends
// it to the journal, and feeds the fleet metrics from it; a retry or steal
// also moves the sweep's counters and is broadcast to its watchers.
func (s *Service) record(sw *sweep, rec fleettrace.Record) {
	now := time.Now()
	rec.TS, rec.Sweep = now.UnixMicro(), sw.id
	s.append(rec)
	m := s.metrics
	switch {
	case rec.Kind == "attempt" && rec.State == "running":
		m.RunStart(rec.Worker)
	case rec.Kind == "attempt" && rec.State == "retry":
		m.RunEnd(rec.Worker)
		m.Retry(rec.Cause)
		sw.retryOrSteal(rec)
	case rec.Kind == "event" && rec.State == "steal":
		m.Steal()
		sw.retryOrSteal(rec)
	case rec.Kind == "point":
		if rec.Worker != "" {
			m.RunEnd(rec.Worker)
		}
		m.PointSettled(now.Sub(sw.started))
	}
}

// append writes rec to the journal (a jsonlog.Log; DESIGN.md, "Append-only
// logs"), if one is attached. Journal failures degrade restart fidelity, not
// the running sweep: they are logged and the in-memory state stays
// authoritative.
func (s *Service) append(rec fleettrace.Record) {
	s.mu.Lock()
	j := s.journal
	s.mu.Unlock()
	if j == nil {
		return
	}
	line, err := jsonlog.Append(make([]byte, 0, 256), &rec)
	if err == nil {
		err = j.Append(line)
	}
	if err != nil {
		s.logf("journal: %v", err)
	}
}

// replayRecord applies one line of a previous process's journal. Torn lines
// and those of an older format are skipped; a done/cached completion whose
// bytes are no longer in the store is dropped, so the point re-runs.
func (s *Service) replayRecord(_ int64, line []byte) {
	var rec fleettrace.Record
	if json.Unmarshal(line, &rec) != nil {
		return
	}
	switch {
	case rec.Kind == "sweep":
		if rec.Spec == nil || rec.Sweep == "" {
			return
		}
		if _, exists := s.sweeps[rec.Sweep]; exists {
			return
		}
		sw, err := s.newSweep(rec.Sweep, rec.Spec)
		if err != nil {
			s.logf("journal: sweep %s unreplayable: %v", rec.Sweep, err)
			return
		}
		sw.started = time.UnixMicro(rec.TS)
		s.sweeps[rec.Sweep] = sw
		s.order = append(s.order, rec.Sweep)
		s.replayedSweeps++
		var seq int
		if _, err := fmt.Sscanf(rec.Sweep, "s%d-", &seq); err == nil && seq > s.seq {
			s.seq = seq
		}
	case rec.Kind == "point" && rec.Terminal():
		sw := s.sweeps[rec.Sweep]
		if sw == nil || rec.Point < 0 || rec.Point >= len(sw.results) || sw.results[rec.Point] != nil {
			return
		}
		pr := &specv1.PointResult{Status: specv1.Status(rec.State), Worker: cmp.Or(rec.Reported, rec.Worker),
			Attempts: rec.Attempt, Error: rec.Error}
		sw.stamp(pr, rec.Point)
		if pr.Status == specv1.StatusDone || pr.Status == specv1.StatusCached {
			raw, ok := s.cfg.Cache.GetRaw(pr.Key)
			if !ok {
				return
			}
			pr.Result = raw
		}
		sw.recordLocked(pr) // replay is single-threaded: New has started no goroutine yet
		s.replayedPoints++
	}
}

// replayJournal rebuilds sweeps from the journal a previous process left and
// re-enqueues their unsettled points.
func (s *Service) replayJournal(j *jsonlog.Log) error {
	if err := j.Scan(s.replayRecord); err != nil {
		return fmt.Errorf("sweepsvc: journal read: %w", err)
	}

	// Re-enqueue every unsettled point of every resumed sweep, in
	// submission order.
	for _, id := range s.order {
		sw := s.sweeps[id]
		resumed := 0
		for i := range sw.configs {
			if sw.results[i] == nil {
				s.queue.push(&task{sw: sw, index: i})
				resumed++
			}
		}
		s.requeuedPoints += resumed
		if resumed > 0 {
			s.progress.Start(id)
			s.logf("sweep %s: resumed from journal (%d settled, %d to run)", id, sw.settled, resumed)
		} else {
			s.progress.Finish(id, 0)
		}
	}
	return nil
}
