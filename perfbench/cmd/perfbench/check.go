package main

// Correctness checks on the daemon's replies. Every failed check
// counts into failed_frac, and any failure makes the run exit non-zero.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"opdaemon/internal/core"
)

// opJSON is the part of an operation reply the checks read.
type opJSON struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Result json.RawMessage `json:"result"`
}

// opRef is the ID and status of one operation in a reply.
type opRef struct {
	ID     string
	Status string
}

var (
	resultField = []byte(`"result":`)
	statusField = []byte(`"status":"`)
)

// scanOps appends the ID and status of every operation in a reply to
// dst. The body is an envelope whose result is one operation (single)
// or a list of them, in the compact encoding the api emits: an op's
// "id" precedes its "status", and params here never use either key.
// Read replies arrive tens of thousands of times a second, and a full
// json.Unmarshal of them adds 30-40% to the process's CPU per read
// (see README.md), so they are scanned instead. A body in any other
// shape is an error, and so a failed check.
func scanOps(body []byte, single bool, dst []opRef) ([]opRef, error) {
	i := bytes.Index(body, resultField)
	if i < 0 {
		return dst, fmt.Errorf("reply without a result: %.200q", body)
	}
	rest := body[i+len(resultField):]
	empty := bytes.HasPrefix(rest, []byte("[]"))
	n := len(dst)
	for {
		j := bytes.Index(rest, idField)
		if j < 0 {
			break
		}
		rest = rest[j+len(idField):]
		end := bytes.IndexByte(rest, '"')
		if end < 0 {
			return dst, fmt.Errorf("unterminated id in reply: %.200q", body)
		}
		id := rest[:end]
		rest = rest[end+1:]
		k := bytes.Index(rest, statusField)
		if k < 0 {
			return dst, fmt.Errorf("op %s without a status in reply", id)
		}
		if m := bytes.Index(rest, idField); m >= 0 && m < k {
			return dst, fmt.Errorf("op %s without a status in reply", id)
		}
		rest = rest[k+len(statusField):]
		end = bytes.IndexByte(rest, '"')
		if end < 0 {
			return dst, fmt.Errorf("unterminated status in reply: %.200q", body)
		}
		dst = append(dst, opRef{ID: string(id), Status: string(rest[:end])})
		rest = rest[end+1:]
	}
	switch got := len(dst) - n; {
	case single && got != 1:
		return dst, fmt.Errorf("reply holds %d operations, want 1: %.200q", got, body)
	case !single && got == 0 && !empty:
		return dst, fmt.Errorf("unrecognised list reply: %.200q", body)
	}
	return dst, nil
}

// terminal reports whether a reply shows a settled operation.
func terminal(status string) bool {
	return core.Status(status).Terminal()
}

// checkOutcome checks a settled operation against what was submitted:
// echo results equal their params, noop reports ok, fail ends failed.
func checkOutcome(it Item, status string, result json.RawMessage) error {
	switch it.Kind {
	case "fail":
		if status != string(core.StatusFailed) {
			return fmt.Errorf("fail op ended %q, want failed", status)
		}
		return nil
	case "noop":
		return checkDone(status, result, noopResult)
	default:
		return checkDone(status, result, it.Params)
	}
}

func checkDone(status string, got, want json.RawMessage) error {
	if status != string(core.StatusDone) {
		return fmt.Errorf("op ended %q, want done", status)
	}
	if !jsonEqual(got, want) {
		return fmt.Errorf("result %s, want %s", got, want)
	}
	return nil
}

// jsonEqual compares two JSON texts ignoring insignificant whitespace.
// Object keys are sorted on both sides (the daemon encodes maps with
// sorted keys), so compact forms compare byte for byte.
func jsonEqual(a, b []byte) bool {
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// checkGet checks a point GET against the preloaded operation.
func checkGet(want *PreOp, got opRef) error {
	if got.ID != want.ID {
		return fmt.Errorf("GET %s returned op %q", want.ID, got.ID)
	}
	if got.Status != want.Status {
		return fmt.Errorf("GET %s: status %q, want %q", want.ID, got.Status, want.Status)
	}
	return nil
}

// checkPage checks one newest-first list page against the preloaded
// history, whose positions ascend with creation time, so newest-first
// means descending positions. prev is the position of the previous
// page's last element, or len(preload) for a first page. status
// filters the page when non-empty. The page must hold exactly the next
// limit matching operations below prev, in order: that makes pages
// newest-first, consecutive pages disjoint, and filtered pages pure.
// It returns the position of the page's last element, the next page's
// prev.
func checkPage(page []opRef, preload []PreOp, prev int, status string, limit int) (int, error) {
	next := prev
	for j, op := range page {
		pos, ok := preloadPos(preload, op.ID)
		if !ok {
			return 0, fmt.Errorf("page item %d: unknown op %q", j, op.ID)
		}
		if status != "" && op.Status != status {
			return 0, fmt.Errorf("page item %d: status %q in a status=%s page", j, op.Status, status)
		}
		if pos >= next {
			return 0, fmt.Errorf("page item %d: op at position %d is not older than position %d (out of order or overlapping the previous page)", j, pos, next)
		}
		if want := nextMatch(preload, next, status); pos != want {
			return 0, fmt.Errorf("page item %d: op at position %d, want %d (skipped a newer match)", j, pos, want)
		}
		if op.Status != preload[pos].Status {
			return 0, fmt.Errorf("page item %d: status %q, want %q", j, op.Status, preload[pos].Status)
		}
		next = pos
	}
	if len(page) < limit && nextMatch(preload, next, status) >= 0 {
		return 0, fmt.Errorf("short page of %d with older matches left", len(page))
	}
	return next, nil
}

// preloadPos maps a preloaded operation's ID to its position: the ID's
// low 64 bits.
func preloadPos(preload []PreOp, id string) (int, bool) {
	if len(id) != 32 {
		return 0, false
	}
	pos, err := strconv.ParseUint(id[16:], 16, 64)
	if err != nil || pos >= uint64(len(preload)) || preload[pos].ID != id {
		return 0, false
	}
	return int(pos), true
}

// nextMatch is the position of the newest operation older than
// position before whose status matches (any when status is empty), or
// -1.
func nextMatch(preload []PreOp, before int, status string) int {
	for i := before - 1; i >= 0; i-- {
		if status == "" || preload[i].Status == status {
			return i
		}
	}
	return -1
}

// ack is one 202-acknowledged ingest-wal operation.
type ack struct {
	Sent     int64
	Measured bool
	Item     Item
}

// seenNotice is the done notice the follower received for an
// operation: when it arrived and the transition time it carries.
type seenNotice struct {
	Recv int64
	At   time.Time
}

// checkDurable checks a reopened log against every acknowledged
// operation: each must be present and done with the right result,
// unless its done notice shows it settled before evictBefore, which
// makes it eligible for the janitor's TTL sweep. It returns one error
// per failing operation.
func checkDurable(acks map[string]ack, seen map[string]seenNotice, get func(id string) (*core.Operation, error), evictBefore time.Time) []error {
	var errs []error
	for id, a := range acks {
		op, err := get(id)
		if err != nil {
			if s, ok := seen[id]; ok && s.At.Before(evictBefore) {
				continue
			}
			errs = append(errs, fmt.Errorf("acknowledged op %s missing after reopen: %v", id, err))
			continue
		}
		if err := checkOutcome(a.Item, string(op.Status), op.Result); err != nil {
			errs = append(errs, fmt.Errorf("acknowledged op %s after reopen: %w", id, err))
		}
	}
	return errs
}
