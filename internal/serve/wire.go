package serve

// Wire protocol for cmd/hpnn-serve: little-endian length-prefixed frames
// over a byte stream (TCP). Deliberately minimal — no external encoders —
// and hardened against malformed input (FuzzDecodeRequest): a decoder
// must return an error, never panic or over-allocate, for arbitrary bytes.
//
//	frame      := len u32 | payload (len bytes, ≤ MaxFrameBytes)
//	request v1 := 1 u8 | rank u8 | dim u32 × rank | value f64 × prod(dims)
//	request v2 := 2 u8 | mlen u8 | model bytes (mlen) | rank u8 | dim u32 × rank | value f64 × prod(dims)
//	response   := version u8 | status u8 | class u32             (status 0, ok)
//	            | version u8 | status u8 | mlen u16 | msg bytes  (status 1, error)
//	            | version u8 | status u8 | mlen u16 | msg bytes  (status 2, retry)
//
// Version 2 adds multi-tenant routing: the model-ID string names the tenant
// the sample is for. Version 1 frames remain valid and route to the
// server's configured default model, so pre-registry clients keep working
// unchanged. Status 2 (retry) marks transient failures — a shed request
// (ErrOverloaded) or a routing race during a hot-swap (ErrRetry) — that the
// client should back off and resubmit, as opposed to status 1 errors, which
// are definitive.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"hpnn/internal/tensor"
)

const (
	// WireVersion is the original single-model protocol version.
	WireVersion = 1
	// WireVersion2 is the multi-tenant protocol version: request frames
	// carry a model-ID string ahead of the sample.
	WireVersion2 = 2
	// MaxFrameBytes bounds a frame payload; larger length prefixes are
	// rejected before any allocation.
	MaxFrameBytes = 16 << 20
	// MaxModelIDLen bounds the v2 model-ID string (its length travels in
	// one byte).
	MaxModelIDLen = 255
	// maxRank bounds request tensor rank ([C,H,W] samples use 3).
	maxRank = 4

	statusOK    = 0
	statusErr   = 1
	statusRetry = 2
)

// writeFrame fills in the length prefix of frame, whose first 4 bytes are
// reserved for it, and sends the frame in one Write: one syscall and, with
// TCP_NODELAY, one segment.
func writeFrame(w io.Writer, frame []byte) error {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err := w.Write(frame)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("serve: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// EncodeRequest writes x as one version-1 request frame (no model ID; the
// server routes it to its default model).
func EncodeRequest(w io.Writer, x *tensor.Tensor) error {
	return encodeRequest(w, WireVersion, "", x)
}

// EncodeRequestTo writes x as one version-2 request frame addressed to the
// named model. An empty model ID is valid and routes to the server's
// default model, like a v1 frame.
func EncodeRequestTo(w io.Writer, model string, x *tensor.Tensor) error {
	return encodeRequest(w, WireVersion2, model, x)
}

func encodeRequest(w io.Writer, version byte, model string, x *tensor.Tensor) error {
	rank := len(x.Shape)
	if rank < 1 || rank > maxRank {
		return fmt.Errorf("serve: request rank %d out of [1,%d]", rank, maxRank)
	}
	if len(model) > MaxModelIDLen {
		return fmt.Errorf("serve: model ID of %d bytes exceeds limit %d", len(model), MaxModelIDLen)
	}
	head := 2
	if version == WireVersion2 {
		head = 3 + len(model)
	}
	frame := make([]byte, 4+head+4*rank+8*x.Len())
	payload := frame[4:]
	payload[0] = version
	off := 1
	if version == WireVersion2 {
		payload[1] = byte(len(model))
		copy(payload[2:], model)
		off = 2 + len(model)
	}
	payload[off] = byte(rank)
	off++
	for _, d := range x.Shape {
		binary.LittleEndian.PutUint32(payload[off:], uint32(d))
		off += 4
	}
	for _, v := range x.Data {
		binary.LittleEndian.PutUint64(payload[off:], math.Float64bits(v))
		off += 8
	}
	return writeFrame(w, frame)
}

// DecodeRequestModel reads one request frame of either protocol version and
// returns the sample tensor plus the model ID the request routes to — ""
// for v1 frames and v2 frames with an empty ID, meaning the default model.
// It validates version, model-ID length, rank, dimensions and payload
// length before allocating the tensor, and rejects non-finite values — junk
// the quantizer must never see.
func DecodeRequestModel(r io.Reader) (*tensor.Tensor, string, error) {
	payload, err := readFrame(r)
	if err != nil {
		return nil, "", err
	}
	if len(payload) < 2 {
		return nil, "", fmt.Errorf("serve: request payload of %d bytes truncated", len(payload))
	}
	model := ""
	off := 1
	switch payload[0] {
	case WireVersion:
	case WireVersion2:
		mlen := int(payload[1])
		if len(payload) < 2+mlen+1 {
			return nil, "", fmt.Errorf("serve: request payload truncated in model ID (%d of %d bytes)",
				len(payload)-2, mlen)
		}
		model = string(payload[2 : 2+mlen])
		off = 2 + mlen
	default:
		return nil, "", fmt.Errorf("serve: request version %d, want %d or %d", payload[0], WireVersion, WireVersion2)
	}
	rank := int(payload[off])
	off++
	if rank < 1 || rank > maxRank {
		return nil, "", fmt.Errorf("serve: request rank %d out of [1,%d]", rank, maxRank)
	}
	if len(payload) < off+4*rank {
		return nil, "", fmt.Errorf("serve: request payload truncated in dimensions")
	}
	shape := make([]int, rank)
	elems := 1
	for i := range shape {
		d := binary.LittleEndian.Uint32(payload[off:])
		off += 4
		if d == 0 || d > MaxFrameBytes {
			return nil, "", fmt.Errorf("serve: request dimension %d invalid", d)
		}
		shape[i] = int(d)
		elems *= int(d)
		if elems > MaxFrameBytes/8 {
			return nil, "", fmt.Errorf("serve: request of %d elements exceeds frame limit", elems)
		}
	}
	if len(payload) != off+8*elems {
		return nil, "", fmt.Errorf("serve: request payload %d bytes, want %d for shape %v",
			len(payload), off+8*elems, shape)
	}
	x := tensor.New(shape...)
	for i := range x.Data {
		v := math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, "", fmt.Errorf("serve: non-finite value at element %d", i)
		}
		x.Data[i] = v
	}
	return x, model, nil
}

// EncodeResponse writes one response frame: the predicted class, or the
// error when err is non-nil. Transient conditions — a shed request
// (ErrOverloaded) or a hot-swap routing race (ErrRetry) — encode as status
// "retry" so clients know to back off and resubmit rather than fail.
func EncodeResponse(w io.Writer, class int, err error) error {
	if err != nil {
		status := byte(statusErr)
		if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrRetry) {
			status = statusRetry
		}
		msg := err.Error()
		if len(msg) > math.MaxUint16 {
			msg = msg[:math.MaxUint16]
		}
		frame := make([]byte, 4+4+len(msg))
		payload := frame[4:]
		payload[0], payload[1] = WireVersion, status
		binary.LittleEndian.PutUint16(payload[2:], uint16(len(msg)))
		copy(payload[4:], msg)
		return writeFrame(w, frame)
	}
	var frame [10]byte
	frame[4], frame[5] = WireVersion, statusOK
	binary.LittleEndian.PutUint32(frame[6:], uint32(class))
	return writeFrame(w, frame[:])
}

// DecodeResponse reads one response frame, returning the predicted class or
// the server-reported error. A retry-status response decodes to an error
// wrapping ErrOverloaded, so clients test errors.Is(err, ErrOverloaded) and
// back off.
func DecodeResponse(r io.Reader) (int, error) {
	payload, err := readFrame(r)
	if err != nil {
		return -1, err
	}
	if len(payload) < 2 {
		return -1, fmt.Errorf("serve: response payload of %d bytes truncated", len(payload))
	}
	if payload[0] != WireVersion {
		return -1, fmt.Errorf("serve: response version %d, want %d", payload[0], WireVersion)
	}
	switch payload[1] {
	case statusOK:
		if len(payload) != 6 {
			return -1, fmt.Errorf("serve: ok response payload %d bytes, want 6", len(payload))
		}
		return int(int32(binary.LittleEndian.Uint32(payload[2:]))), nil
	case statusErr, statusRetry:
		if len(payload) < 4 {
			return -1, fmt.Errorf("serve: error response truncated")
		}
		mlen := int(binary.LittleEndian.Uint16(payload[2:]))
		if len(payload) != 4+mlen {
			return -1, fmt.Errorf("serve: error response payload %d bytes, want %d", len(payload), 4+mlen)
		}
		if payload[1] == statusRetry {
			return -1, fmt.Errorf("serve: remote: %s (back off and retry): %w", payload[4:], ErrOverloaded)
		}
		return -1, fmt.Errorf("serve: remote: %s", payload[4:])
	default:
		return -1, fmt.Errorf("serve: response status %d unknown", payload[1])
	}
}
