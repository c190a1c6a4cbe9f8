package engine

// The WAL record codec: a self-describing framed byte format shared by
// log segments and snapshots, so one replay routine (and one fuzz
// target) covers both.
//
// Each frame is
//
//	| length uint32 LE | crc32 uint32 LE | payload (length bytes) |
//
// where payload is one record-type byte followed by the record body and
// the checksum (IEEE CRC32) covers the whole payload. The length prefix
// makes frames skippable without parsing bodies; the checksum makes a
// torn or bit-flipped tail detectable, which is what lets recovery
// truncate at the first bad frame instead of guessing.
//
// The record types are those of the v2 codec:
//
//   - op (type 4): a full snapshot in the compact binary encoding
//     (core.AppendBinary);
//   - delta (type 5): only the mutable field set of a lifecycle
//     transition (core.AppendBinaryDelta). A delta replays by folding
//     onto the ID's current replay state; a delta whose base is absent
//     is skipped — the snapshot-overlap window makes that shape
//     legitimate (the op was deleted before the snapshot was cut, but
//     its delta records live in retained segments);
//   - delete (type 3): the raw ID.
//
// Types 1 and 2 were the retired v1 codec's JSON put and update
// records. This build cannot read them, and a CRC-valid frame of
// either type is refused with errWALLegacy rather than treated as
// corruption: truncating there would silently discard the rest of a
// valid v1 log.
//
// Replay treats every full-record type as an idempotent upsert keyed
// by ID, so re-applying an overlapping snapshot + segment suffix
// converges on the same state.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"opdaemon/internal/core"
)

// WAL record types. The zero value is deliberately unused so an
// all-zeroes torn frame can never masquerade as a valid record type,
// and 1–2 belong to the retired v1 codec (see the file comment).
const (
	walRecDelete  byte = 3 // raw ID body
	walRecOpV2    byte = 4 // full snapshot, binary body
	walRecDeltaV2 byte = 5 // mutable-field delta, binary body
)

// walFrameHeader is the fixed per-frame overhead: 4-byte length plus
// 4-byte checksum.
const walFrameHeader = 8

// walMaxRecordBytes bounds a single frame's payload. Real records are a
// few hundred bytes; the bound exists so a corrupt (or fuzzed) length
// field is rejected as a bad frame instead of driving a giant
// allocation.
const walMaxRecordBytes = 64 << 20

// Sentinel replay failures. errWALTorn and errWALCorrupt both mean
// "the valid prefix ends here"; they differ only in what the bytes
// after it look like, which recovery reports but handles the same way.
// errWALLegacy is not a prefix end: recovery refuses the whole log.
var (
	// errWALTorn means the data ends mid-frame — the classic crash
	// mid-append shape.
	errWALTorn = errors.New("wal: torn trailing frame")
	// errWALCorrupt means a structurally complete frame failed its
	// checksum or carried an impossible length or type.
	errWALCorrupt = errors.New("wal: corrupt frame")
	// errWALLegacy means a CRC-valid frame carries a record type of the
	// retired v1 JSON codec (1 or 2).
	errWALLegacy = errors.New("wal: record written by the retired v1 JSON codec, which this build no longer reads")
)

// appendWALFrame appends one framed record to dst and returns the
// extended slice.
func appendWALFrame(dst []byte, typ byte, body []byte) []byte {
	dst, mark := reserveWALFrame(dst)
	dst = append(dst, typ)
	dst = append(dst, body...)
	return finishWALFrame(dst, mark)
}

// reserveWALFrame appends a zeroed frame header to dst and returns the
// grown slice plus the header's offset. The caller appends the payload
// (type byte + body) directly, then calls finishWALFrame with the same
// mark — the record is built in place with no intermediate body
// buffer.
func reserveWALFrame(dst []byte) ([]byte, int) {
	mark := len(dst)
	var hdr [walFrameHeader]byte
	return append(dst, hdr[:]...), mark
}

// finishWALFrame backfills the length and checksum for the frame whose
// header was reserved at mark, covering everything appended since.
func finishWALFrame(dst []byte, mark int) []byte {
	payload := dst[mark+walFrameHeader:]
	binary.LittleEndian.PutUint32(dst[mark:mark+4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[mark+4:mark+8], crc32.ChecksumIEEE(payload))
	return dst
}

// encodeOpRecordV2 appends a framed v2 full-snapshot record to dst in
// place: header reserved, payload appended directly, length + CRC
// backfilled. No intermediate body allocation.
func encodeOpRecordV2(dst []byte, op *core.Operation) ([]byte, error) {
	dst, mark := reserveWALFrame(dst)
	dst = append(dst, walRecOpV2)
	dst, err := op.AppendBinary(dst)
	if err != nil {
		return dst[:mark], fmt.Errorf("wal: %w", err)
	}
	return finishWALFrame(dst, mark), nil
}

// encodeDeltaRecordV2 appends a framed v2 delta record for op to dst
// in place. The caller has already established delta eligibility
// (core.DeltaEligible), which guarantees encoding cannot fail.
func encodeDeltaRecordV2(dst []byte, op *core.Operation) []byte {
	dst, mark := reserveWALFrame(dst)
	dst = append(dst, walRecDeltaV2)
	dst = op.AppendBinaryDelta(dst)
	return finishWALFrame(dst, mark)
}

// appendDeleteRecord appends a framed deletion to dst; the body is the
// raw ID.
func appendDeleteRecord(dst []byte, id string) []byte {
	dst, mark := reserveWALFrame(dst)
	dst = append(dst, walRecDelete)
	dst = append(dst, id...)
	return finishWALFrame(dst, mark)
}

// walEncPool recycles record-encode buffers so the hot mutation path
// (which must encode before taking the shard lock, see lockscope's
// codec rule) doesn't allocate a fresh buffer per record. Pooled as
// *[]byte to keep the slice header off the heap on Put.
var walEncPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// walEncPoolMaxCap bounds what returns to the pool: an occasional
// giant record (big params blob) must not pin its buffer forever.
const walEncPoolMaxCap = 1 << 20

// getEncBuf returns an empty pooled encode buffer.
func getEncBuf() *[]byte {
	b := walEncPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// putEncBuf returns a buffer to the pool once its bytes have been
// copied into the WAL batch. Oversized buffers are dropped, and a nil
// buffer (a store with no log encodes nothing) is ignored.
func putEncBuf(b *[]byte) {
	if b != nil && cap(*b) <= walEncPoolMaxCap {
		walEncPool.Put(b)
	}
}

// walFrameLen reads the payload length from a frame header; the caller
// guarantees at least walFrameHeader bytes.
func walFrameLen(frame []byte) uint32 {
	return binary.LittleEndian.Uint32(frame[0:4])
}

// walFrameCRCOK checks the frame's stored checksum against its payload.
func walFrameCRCOK(frame, payload []byte) bool {
	return crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(frame[4:8])
}

// walDecoded is one record decoded off the log, ready to fold into
// replay state. Exactly one of op / delta / del describes the record.
type walDecoded struct {
	op    *core.Operation   // full snapshot
	delta *core.BinaryDelta // v2 mutable-field delta
	del   string            // deletion target ID
}

// id returns the operation ID the record concerns — the partition key
// for parallel replay.
func (d *walDecoded) id() string {
	switch {
	case d.op != nil:
		return d.op.ID
	case d.delta != nil:
		return d.delta.ID
	}
	return d.del
}

// decodeWALRecord decodes one record body without touching replay
// state — the pure half that parallel recovery fans out. The returned
// record owns its memory; body may be reused.
func decodeWALRecord(typ byte, body []byte) (walDecoded, error) {
	switch typ {
	case 1, 2:
		return walDecoded{}, fmt.Errorf("%w (record type %d)", errWALLegacy, typ)
	case walRecOpV2:
		op, err := core.DecodeBinaryOperation(body)
		if err != nil {
			return walDecoded{}, fmt.Errorf("%w: %v", errWALCorrupt, err)
		}
		return walDecoded{op: op}, nil
	case walRecDeltaV2:
		d, err := core.DecodeBinaryDelta(body)
		if err != nil {
			return walDecoded{}, fmt.Errorf("%w: %v", errWALCorrupt, err)
		}
		return walDecoded{delta: d}, nil
	case walRecDelete:
		return walDecoded{del: string(body)}, nil
	default:
		return walDecoded{}, fmt.Errorf("%w: unknown record type %d", errWALCorrupt, typ)
	}
}

// applyDecoded folds one decoded record into the replay state map:
// full records upsert, deltas fold onto the ID's current state (a
// delta with no base is skipped — see the package comment), deletes
// remove. Every parallel-recovery partition worker shares this one
// definition of "apply".
func applyDecoded(state map[string]*core.Operation, d walDecoded) {
	switch {
	case d.op != nil:
		state[d.op.ID] = d.op
	case d.delta != nil:
		if base, ok := state[d.delta.ID]; ok {
			state[d.delta.ID] = d.delta.Apply(base)
		}
	default:
		delete(state, d.del)
	}
}
