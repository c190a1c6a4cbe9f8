package api

import (
	"encoding/json"
	"log"
	"net/http"
	"strconv"
	"sync"

	"opdaemon/internal/core"
)

// Response is the JSON envelope wrapping every API reply, following
// the snapd REST convention: type is "sync" for immediate results,
// "async" for accepted background operations, and "error" for
// failures. Status is the HTTP status text and StatusCode mirrors the
// HTTP code so clients can log the body alone.
type Response struct {
	Type       string `json:"type"`
	Status     string `json:"status"`
	StatusCode int    `json:"status_code"`
	Result     any    `json:"result"`
}

const (
	typeSync  = "sync"
	typeAsync = "async"
	typeError = "error"
)

// maxPooledReply bounds the reply buffers kept for reuse, so one large
// unbounded listing does not stay pinned in the pool.
const maxPooledReply = 64 << 10

// replyBufs recycles reply buffers across requests.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeJSON encodes the envelope and replies with it plus any extra
// headers. Headers are only applied after a successful encode so the
// fallback error response doesn't carry headers describing the reply
// that failed (e.g. a Location for an async result).
func writeJSON(w http.ResponseWriter, code int, resp *Response, headers map[string]string) {
	buf := replyBufs.Get().(*[]byte)
	body, err := appendResponse((*buf)[:0], resp)
	if err != nil {
		replyBufs.Put(buf)
		// A handler produced a result json cannot represent; keep
		// the envelope contract with a 500 error instead of sending
		// a success header with an empty body. Error envelopes only
		// contain strings, so this cannot recurse.
		log.Printf("api: encoding %s response: %v", resp.Type, err)
		writeError(w, http.StatusInternalServerError, "response not serializable")
		return
	}
	body = append(body, '\n')
	for k, v := range headers {
		w.Header().Set(k, v)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		log.Printf("api: writing response: %v", err)
	}
	if cap(body) <= maxPooledReply {
		*buf = body
		replyBufs.Put(buf)
	}
}

// appendResponse appends the envelope's JSON encoding — byte for byte
// what json.Marshal(resp) returns, which FuzzEnvelopeEncoding pins —
// to dst. Operation results and the api's own envelope payloads are
// encoded by appenders; any other result (health, notices) is left to
// encoding/json.
func appendResponse(dst []byte, resp *Response) ([]byte, error) {
	dst = appendEnvelopeHead(dst, resp.Type, resp.Status, resp.StatusCode)
	dst = append(dst, `,"result":`...)
	var err error
	switch r := resp.Result.(type) {
	case *core.Operation:
		dst, err = r.AppendJSON(dst)
	case []*core.Operation:
		dst, err = appendOps(dst, r)
	case []batchItemEnvelope:
		dst, err = appendBatchItems(dst, r)
	case errorResult:
		dst = append(dst, `{"message":`...)
		dst = core.AppendJSONString(dst, r.Message)
		dst = append(dst, '}')
	case batchErrorResult:
		dst = appendBatchError(dst, r)
	default:
		var b []byte
		if b, err = json.Marshal(r); err == nil {
			dst = append(dst, b...)
		}
	}
	if err != nil {
		return dst, err
	}
	return append(dst, '}'), nil
}

// appendEnvelopeHead appends the fields every envelope shape opens
// with, leaving the object open.
func appendEnvelopeHead(dst []byte, typ, status string, code int) []byte {
	dst = append(dst, `{"type":`...)
	dst = core.AppendJSONString(dst, typ)
	dst = append(dst, `,"status":`...)
	dst = core.AppendJSONString(dst, status)
	dst = append(dst, `,"status_code":`...)
	return strconv.AppendInt(dst, int64(code), 10)
}

func appendOps(dst []byte, ops []*core.Operation) ([]byte, error) {
	if ops == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, op := range ops {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = op.AppendJSON(dst); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

func appendBatchItems(dst []byte, items []batchItemEnvelope) ([]byte, error) {
	if items == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, it := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendEnvelopeHead(dst, it.Type, it.Status, it.StatusCode)
		dst = append(dst, `,"location":`...)
		dst = core.AppendJSONString(dst, it.Location)
		dst = append(dst, `,"result":`...)
		var err error
		if dst, err = it.Result.AppendJSON(dst); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

func appendBatchError(dst []byte, r batchErrorResult) []byte {
	dst = append(dst, `{"message":`...)
	dst = core.AppendJSONString(dst, r.Message)
	dst = append(dst, `,"items":`...)
	if r.Items == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, it := range r.Items {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"index":`...)
			dst = strconv.AppendInt(dst, int64(it.Index), 10)
			dst = append(dst, `,"message":`...)
			dst = core.AppendJSONString(dst, it.Message)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// writeSync replies with a 200-style synchronous result envelope.
func writeSync(w http.ResponseWriter, code int, result any) {
	writeJSON(w, code, &Response{
		Type:       typeSync,
		Status:     http.StatusText(code),
		StatusCode: code,
		Result:     result,
	}, nil)
}

// writeAsync replies 202 Accepted with the operation snapshot and sets
// the Location header to the operation's poll URL.
func writeAsync(w http.ResponseWriter, location string, result any) {
	writeJSON(w, http.StatusAccepted, &Response{
		Type:       typeAsync,
		Status:     http.StatusText(http.StatusAccepted),
		StatusCode: http.StatusAccepted,
		Result:     result,
	}, map[string]string{"Location": location})
}

// batchItemEnvelope mirrors the top-level async envelope for one
// element of a batch submission. It carries a per-item location
// because a single Location header cannot point at many operations.
type batchItemEnvelope struct {
	Type       string          `json:"type"`
	Status     string          `json:"status"`
	StatusCode int             `json:"status_code"`
	Location   string          `json:"location"`
	Result     *core.Operation `json:"result"`
}

// writeBatchAsync replies 202 Accepted with one async envelope per
// accepted operation, in batch order. No Location header is set; each
// item embeds its own poll URL.
func writeBatchAsync(w http.ResponseWriter, ops []*core.Operation) {
	items := make([]batchItemEnvelope, len(ops))
	for i, op := range ops {
		items[i] = batchItemEnvelope{
			Type:       typeAsync,
			Status:     http.StatusText(http.StatusAccepted),
			StatusCode: http.StatusAccepted,
			Location:   resourcePath(op),
			Result:     op,
		}
	}
	writeJSON(w, http.StatusAccepted, &Response{
		Type:       typeAsync,
		Status:     http.StatusText(http.StatusAccepted),
		StatusCode: http.StatusAccepted,
		Result:     items,
	}, nil)
}

// errorResult is the result payload of an error envelope.
type errorResult struct {
	Message string `json:"message"`
}

// batchErrorResult is the result payload when a batch submission fails
// validation: a summary message plus every invalid item, so the client
// can repair the whole batch in one round trip.
type batchErrorResult struct {
	Message string           `json:"message"`
	Items   []batchItemError `json:"items"`
}

// batchItemError names one invalid batch element by its zero-based
// position in the submitted array.
type batchItemError struct {
	Index   int    `json:"index"`
	Message string `json:"message"`
}

// writeBatchError replies 400 with an error envelope listing every
// invalid item of a rejected batch.
func writeBatchError(w http.ResponseWriter, berr *core.BatchError) {
	items := make([]batchItemError, len(berr.Items))
	for i, it := range berr.Items {
		items[i] = batchItemError{Index: it.Index, Message: it.Err.Error()}
	}
	writeJSON(w, http.StatusBadRequest, &Response{
		Type:       typeError,
		Status:     http.StatusText(http.StatusBadRequest),
		StatusCode: http.StatusBadRequest,
		Result:     batchErrorResult{Message: berr.Error(), Items: items},
	}, nil)
}

// writeError replies with an error envelope carrying a client-safe
// message.
func writeError(w http.ResponseWriter, code int, message string) {
	writeErrorHeaders(w, code, message, nil)
}

// writeErrorHeaders is writeError plus extra response headers, for
// error replies that carry metadata (429's Retry-After).
func writeErrorHeaders(w http.ResponseWriter, code int, message string, headers map[string]string) {
	writeJSON(w, code, &Response{
		Type:       typeError,
		Status:     http.StatusText(code),
		StatusCode: code,
		Result:     errorResult{Message: message},
	}, headers)
}
