package api

// Native fuzz targets for the cursor-bearing query parsers — the two
// places a hostile client controls a value that is parsed into an
// internal position (the notices `after=` sequence cursor and the List
// `cursor=` operation ID). The contract under fuzz: the handler never
// panics, and every rejected value is a clean 400 envelope — nothing
// leaks through as a 500 or an empty-but-200 lie for garbage input.
//
// CI runs these for 10s each via `make fuzz-smoke`; longer local runs:
//
//	go test -fuzz FuzzNoticesCursor -fuzztime 5m ./internal/api/
//	go test -fuzz FuzzListQueryCursor -fuzztime 5m ./internal/api/

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"testing"
	"time"

	"opdaemon/internal/core"
	"opdaemon/internal/engine"
)

func FuzzNoticesCursor(f *testing.F) {
	e := engine.New(engine.Config{Workers: 1})
	f.Cleanup(func() { e.Shutdown(context.Background()) })
	s := New(e)

	for _, seed := range []string{
		"", "0", "1", "42", "-1", "+1", " 1", "1 ",
		"18446744073709551615", // MaxUint64: valid, must not wrap
		"18446744073709551616", // MaxUint64+1: overflow, must 400
		"0x10", "1e9", "banana", "999999999999999999999999999999",
		"\x00", "après", "%", "１２３", // multibyte digits must not pass
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, after string) {
		path := "/v1/notices?after=" + url.QueryEscape(after)
		w := serve(s, "GET", path, "")
		if w.Code != http.StatusOK && w.Code != http.StatusBadRequest {
			t.Fatalf("after=%q: status %d, want 200 or 400; body %s", after, w.Code, w.Body.String())
		}
	})
}

func FuzzListQueryCursor(f *testing.F) {
	e := engine.New(engine.Config{Workers: 1})
	f.Cleanup(func() { e.Shutdown(context.Background()) })
	s := New(e)
	// Real operations so a fuzzer that mutates its way to a well-formed
	// 32-hex cursor resolves against live index state.
	seeded := seedStoreThroughEngine(e, 8)

	for _, seed := range []string{
		"", "deadbeef", seeded, "0", "../../etc/passwd",
		"00000000000000000000000000000000",
		"ffffffffffffffffffffffffffffffff",
		"FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF",  // uppercase: not a valid ID
		"0000000000000000000000000000000",   // 31 chars
		"000000000000000000000000000000000", // 33 chars
		"\x00\x01\x02", "％００",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, cursor string) {
		path := "/v1/operations?limit=5&cursor=" + url.QueryEscape(cursor)
		w := serve(s, "GET", path, "")
		if w.Code != http.StatusOK && w.Code != http.StatusBadRequest {
			t.Fatalf("cursor=%q: status %d, want 200 or 400; body %s", cursor, w.Code, w.Body.String())
		}
	})
}

// seedStoreThroughEngine registers a noop kind, runs n operations to
// completion, and returns one of their IDs for the seed corpus.
func seedStoreThroughEngine(e *engine.Engine, n int) string {
	e.Register("noop", func(context.Context, *core.Operation) (any, error) { return nil, nil })
	var id string
	for i := 0; i < n; i++ {
		op, err := e.Submit(context.Background(), "noop", nil)
		if err != nil {
			panic(err)
		}
		id = op.ID
	}
	return id
}

// FuzzEnvelopeEncoding pins the reply appender to encoding/json: for
// every envelope shape the api writes, appendResponse must produce
// exactly json.Marshal's bytes, or both must fail. Each input builds
// operations whose strings, Params, Result and times reach the
// escaping, float-format, key-order, omitempty/omitzero and fallback
// branches.
//
//	go test -fuzz FuzzEnvelopeEncoding -fuzztime 5m ./internal/api/
func FuzzEnvelopeEncoding(f *testing.F) {
	f.Add("id", "echo", 1.5, int64(200), true, []byte(`{"ok":true}`), int64(1_700_000_000), int64(123456789), int32(0), uint8(0))
	f.Add("<a href=\"x\">&amp;</a>", "\x00\x1f\t\n\r\b\f\\\x7f", 1e-7, int64(-1), false, []byte(" [1, \"<&>\" ]\n"), int64(0), int64(0), int32(3600), uint8(0xff))
	f.Add("bad\xffutf8\xe2\x80", "sep\xe2\x80\xa8para\xe2\x80\xa9", 1e21, int64(1<<53), true, []byte(`{"a":`), int64(-62135596800), int64(1), int32(-19800), uint8(0x05))
	f.Add("é日本", "", 123456789e-15, int64(0), false, []byte("\"\xe2\x80\xa8\""), int64(253402300800), int64(0), int32(86400), uint8(0x0a))
	f.Add("k", "v", math.NaN(), int64(7), true, []byte(`null`), int64(1e9), int64(999999999), int32(1), uint8(0x10))
	f.Add("", "x", 0.000001, int64(-9), true, []byte(`1e-7`), int64(-1e10), int64(5), int32(-86399), uint8(0x03))
	f.Fuzz(func(t *testing.T, s1, s2 string, fl float64, n int64, b bool, result []byte, sec, nsec int64, zone int32, shape uint8) {
		at := time.Unix(sec, nsec).In(time.FixedZone(s2, int(zone)))
		op := &core.Operation{
			ID:        s1,
			Kind:      s2,
			Status:    core.Status(s1),
			CreatedAt: at,
			UpdatedAt: at.UTC().Add(time.Duration(n)),
		}
		if shape&1 != 0 {
			op.Params = map[string]any{
				s1:     s2,
				s2:     fl,
				"int":  int(n),
				"i64":  n,
				"num":  float64(n),
				"tiny": fl * 1e-7,
				"huge": fl * 1e21,
				"bool": b,
				"nil":  nil,
				"nest": map[string]any{s2: []any{fl, s1, nil, b, map[string]any{}, []any{}}},
				"none": map[string]any(nil),
				"list": []any(nil),
				"u8":   uint8(n), // outside the fast path: encoding/json's job
				"str":  core.Status(s2),
			}
		} else if shape&2 != 0 {
			op.Params = map[string]any{}
		}
		switch (shape >> 2) & 3 {
		case 1:
			op.Result = result
		case 2:
			op.Result = append(append([]byte(" "), result...), '\t')
		case 3:
			op.Result = json.RawMessage(`{"s":` + strconv.Quote(s1) + `}`)
		}
		if shape&16 != 0 {
			op.CancelledAt = at.Add(time.Second)
			op.Error = s2
			op.Priority = core.Priority(s1)
			op.Client = s2
			op.Deadline = time.Duration(n)
		}
		other := op.Clone()
		other.ID, other.Params, other.Result = s2, nil, nil

		results := []any{
			op,
			(*core.Operation)(nil),
			[]*core.Operation{op, other, nil},
			[]*core.Operation{},
			[]*core.Operation(nil),
			[]batchItemEnvelope{
				{Type: s1, Status: s2, StatusCode: int(n), Location: s1 + s2, Result: op},
				{Result: nil},
			},
			[]batchItemEnvelope(nil),
			errorResult{Message: s1},
			batchErrorResult{Message: s2, Items: []batchItemError{{Index: int(n), Message: s1}, {}}},
			batchErrorResult{Message: s1},
			map[string]any{"healthy": b, "kinds": []string{s1, s2}},
			nil,
		}
		for i, r := range results {
			resp := &Response{Type: s1, Status: s2, StatusCode: int(n), Result: r}
			want, wantErr := json.Marshal(resp)
			got, gotErr := appendResponse(nil, resp)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("shape %d: appendResponse error %v, json.Marshal error %v", i, gotErr, wantErr)
			}
			if wantErr == nil && !bytes.Equal(got, want) {
				t.Fatalf("shape %d: appendResponse differs from json.Marshal\n got %q\nwant %q", i, got, want)
			}
		}
	})
}
