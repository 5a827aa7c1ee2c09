package sweepsvc

// The journal is the coordinator's idempotent-restart record: one JSONL
// line per sweep submission, point assignment and point completion. On New
// the journal is replayed — completed points are rebuilt from the shared
// store by content address, unfinished ones re-enter the queue — so a
// restarted coordinator never re-executes a point whose completion was
// journaled. Result payloads never live here; the store owns them.

import (
	"encoding/json"
	"fmt"

	"flexsim/internal/api/specv1"
	"flexsim/internal/jsonlog"
	"flexsim/internal/obs/fleettrace"
)

// journalRecord is one journal line.
type journalRecord struct {
	Type string `json:"type"` // "sweep", "assign", "point"

	// Sweep submission (type "sweep").
	ID   string       `json:"id,omitempty"`
	Name string       `json:"name,omitempty"`
	Spec *specv1.Spec `json:"spec,omitempty"`

	// Point assignment/completion (types "assign", "point").
	Sweep   string        `json:"sweep,omitempty"`
	Index   int           `json:"index,omitempty"`
	Attempt int           `json:"attempt,omitempty"`
	Worker  string        `json:"worker,omitempty"`
	Status  specv1.Status `json:"status,omitempty"`
	Key     string        `json:"key,omitempty"`
	Error   string        `json:"error,omitempty"`
}

// journalRec appends a record to the journal (a jsonlog.Log; DESIGN.md,
// "Append-only logs"), if one is attached. Journal failures degrade restart
// fidelity, not the running sweep: they are logged and the in-memory state
// stays authoritative.
func (s *Service) journalRec(rec journalRecord) {
	s.mu.Lock()
	j := s.journal
	s.mu.Unlock()
	if j == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err == nil {
		err = j.Append(line)
	}
	if err != nil {
		s.logf("journal: %v", err)
	}
}

// replayRecord applies one line of a previous process's journal. Torn or
// foreign lines are skipped; a done/cached completion whose bytes are no
// longer in the store is dropped, so the point re-runs.
func (s *Service) replayRecord(_ int64, line []byte) {
	var rec journalRecord
	if json.Unmarshal(line, &rec) != nil {
		return
	}
	switch rec.Type {
	case "sweep":
		if rec.Spec == nil || rec.ID == "" {
			return
		}
		if _, exists := s.sweeps[rec.ID]; exists {
			return
		}
		sw, err := s.newSweep(rec.ID, rec.Spec)
		if err != nil {
			s.logf("journal: sweep %s unreplayable: %v", rec.ID, err)
			return
		}
		s.sweeps[rec.ID] = sw
		s.order = append(s.order, rec.ID)
		s.replayedSweeps++
		var seq int
		if _, err := fmt.Sscanf(rec.ID, "s%d-", &seq); err == nil && seq > s.seq {
			s.seq = seq
		}
	case "point":
		sw := s.sweeps[rec.Sweep]
		if sw == nil || rec.Index < 0 || rec.Index >= len(sw.results) || sw.results[rec.Index] != nil {
			return
		}
		pr := &specv1.PointResult{
			SchemaVersion: specv1.Version, Index: rec.Index,
			Load: sw.configs[rec.Index].Load, Status: rec.Status,
			Key: rec.Key, Worker: rec.Worker, Attempts: rec.Attempt, Error: rec.Error,
		}
		if rec.Status == specv1.StatusDone || rec.Status == specv1.StatusCached {
			raw, ok := s.cfg.Cache.GetRaw(rec.Key)
			if !ok {
				return
			}
			pr.Result = raw
		}
		sw.recordLocked(pr) // replay is single-threaded: New has started no goroutine yet
		s.replayedPoints++
		// A replayed completion lands on the same deterministic span the
		// original execution settled; cause "replay" marks that the
		// execution happened in a prior process (no attempt spans here).
		if tr := s.cfg.Trace; tr != nil {
			pr.Trace = fleettrace.PointContext(sw.traceID, rec.Index).Traceparent()
			tr.PointSettled(sw.id, sw.traceID, rec.Index, string(rec.Status), rec.Worker, "replay", rec.Error)
		}
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
				if tr := s.cfg.Trace; tr != nil {
					tr.PointQueued(sw.id, sw.traceID, i)
				}
				if m := s.cfg.Metrics; m != nil {
					m.QueueAdd(1)
				}
				s.queue.push(&task{sw: sw, index: i})
				resumed++
			}
		}
		s.requeuedPoints += resumed
		if p := s.cfg.Progress; p != nil {
			if resumed > 0 {
				p.Start(id)
			} else {
				p.Finish(id, 0)
			}
		}
		if resumed > 0 {
			s.logf("sweep %s: resumed from journal (%d settled, %d to run)", id, sw.settled, resumed)
		}
	}
	return nil
}
