// Package wire provides the binary wire format for the protocol messages
// and length-prefixed framing, so the samplers can run over real network
// transports (see package transport). The encoding is fixed-layout
// little-endian; every message fits in O(1) machine words, matching the
// paper's accounting (Proposition 7).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"wrs/internal/core"
	"wrs/internal/stream"
)

// Frame layout: 4-byte little-endian payload length, then the payload.
// Message payload layout (fixed 29 bytes):
//
//	offset 0  : kind (1 byte)
//	offset 1  : item ID (8 bytes)
//	offset 9  : item weight (8 bytes, IEEE-754)
//	offset 17 : key / threshold (8 bytes, IEEE-754; kind-dependent)
//	offset 25 : level / sequence stamp (4 bytes, int32; kind-dependent)
//
// Sequence-stamped frames: the windowed application's messages
// (core.MsgWindow, core.MsgClock) carry a shard-local sequence stamp —
// core.WindowStamp packing the site-local arrival position with the
// site id — in the int32 level slot, so sliding-window candidates and
// clock advances ride the same 29-byte layout, the same batch frames,
// and the same shard tags as every other message; stamps are bounded
// by core.MaxWindowStamp and the site errors before overflowing.
//
// A frame whose payload length is a positive multiple of MessageSize is
// a batch frame: the concatenation of one or more encoded messages in
// order. A single message is the degenerate batch of one, so readers
// only need the batch path (see ForEachMessage).
//
// A shard-tagged batch frame prefixes the batch with a 3-byte header —
// the marker byte ShardMarker followed by a little-endian uint16 shard
// index — so one connection can multiplex P protocol shards without
// P×k connections. The marker is unambiguous: a plain batch frame
// starts with a message kind (0..3), control frames are 1 byte, and
// ShardMarker is neither.
const (
	payloadLen = 29
	// MessageSize is the fixed encoded size of one protocol message.
	MessageSize = payloadLen

	// Field offsets within an encoded message. Exported so in-place
	// frame rewriting (the ingest benchmark harness re-stamps window
	// messages without re-encoding) shares the layout with
	// AppendMessage/ParseMessage instead of duplicating magic offsets.
	KindOffset   = 0  // 1 byte
	IDOffset     = 1  // 8 bytes
	WeightOffset = 9  // 8 bytes, IEEE-754
	AuxOffset    = 17 // 8 bytes, IEEE-754: key or threshold
	LevelOffset  = 25 // 4 bytes, int32: level or sequence stamp
	// MaxFrameSize bounds incoming frames; anything larger is a protocol
	// violation.
	MaxFrameSize = 1 << 16

	// ShardMarker is the first byte of a shard-tagged batch frame.
	ShardMarker = 0xF5
	// ShardHeaderSize is the length of the shard tag prefix.
	ShardHeaderSize = 3
	// MaxShard is the largest encodable shard index.
	MaxShard = 1<<16 - 1

	// PingByte and PongByte are the 1-byte control frame payloads of the
	// bounded-staleness flow control (DESIGN.md): a site (or relay) writes
	// a ping frame after its staleness window fills, and the pong coming
	// back proves the full upstream path has processed everything sent
	// before it. They are unambiguous on the wire: a control frame is 1
	// byte, a message frame is a multiple of MessageSize, and a
	// shard-tagged frame starts with ShardMarker.
	PingByte = 200
	PongByte = 201
)

// PingPayload and PongPayload are the control frame payloads. They are
// shared by every writer and outbox, which treat queued payloads as
// read-only.
var (
	PingPayload = []byte{PingByte}
	PongPayload = []byte{PongByte}
)

// IsPing reports whether a frame payload is the flow-control ping.
func IsPing(payload []byte) bool { return len(payload) == 1 && payload[0] == PingByte }

// IsPong reports whether a frame payload is the flow-control pong.
func IsPong(payload []byte) bool { return len(payload) == 1 && payload[0] == PongByte }

// AppendMessage appends the encoded message to dst and returns it.
func AppendMessage(dst []byte, m core.Message) []byte {
	var buf [payloadLen]byte
	buf[KindOffset] = byte(m.Kind)
	binary.LittleEndian.PutUint64(buf[IDOffset:], m.Item.ID)
	binary.LittleEndian.PutUint64(buf[WeightOffset:], math.Float64bits(m.Item.Weight))
	aux := m.Key
	if m.Kind == core.MsgEpochUpdate {
		aux = m.Threshold
	}
	binary.LittleEndian.PutUint64(buf[AuxOffset:], math.Float64bits(aux))
	binary.LittleEndian.PutUint32(buf[LevelOffset:], uint32(int32(m.Level)))
	return append(dst, buf[:]...)
}

// ParseMessage decodes a message encoded by AppendMessage.
func ParseMessage(b []byte) (core.Message, error) {
	if len(b) != payloadLen {
		return core.Message{}, fmt.Errorf("wire: payload length %d, want %d", len(b), payloadLen)
	}
	kind := core.MsgKind(b[KindOffset])
	if kind > core.MsgClock {
		return core.Message{}, fmt.Errorf("wire: unknown message kind %d", b[KindOffset])
	}
	m := core.Message{
		Kind: kind,
		Item: stream.Item{
			ID:     binary.LittleEndian.Uint64(b[IDOffset:]),
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(b[WeightOffset:])),
		},
		Level: int(int32(binary.LittleEndian.Uint32(b[LevelOffset:]))),
	}
	aux := math.Float64frombits(binary.LittleEndian.Uint64(b[AuxOffset:]))
	if kind == core.MsgEpochUpdate {
		m.Threshold = aux
	} else {
		m.Key = aux
	}
	return m, nil
}

// ForEachMessage decodes a batch payload — one or more concatenated
// encoded messages — invoking fn for each in order. It fails without
// calling fn unless the payload is a positive multiple of MessageSize;
// a decode error mid-batch stops the iteration.
func ForEachMessage(b []byte, fn func(core.Message)) error {
	if len(b) == 0 || len(b)%payloadLen != 0 {
		return fmt.Errorf("wire: batch payload length %d is not a positive multiple of %d", len(b), payloadLen)
	}
	for off := 0; off < len(b); off += payloadLen {
		m, err := ParseMessage(b[off : off+payloadLen])
		if err != nil {
			return err
		}
		fn(m)
	}
	return nil
}

// AppendMessages appends the encoded batch of msgs to dst and returns
// it. The caller is responsible for splitting batches so the payload
// stays within MaxFrameSize (WriteFrame enforces the bound).
func AppendMessages(dst []byte, msgs []core.Message) []byte {
	for _, m := range msgs {
		dst = AppendMessage(dst, m)
	}
	return dst
}

// AppendShardHeader appends the 3-byte shard tag that turns the batch
// messages appended after it into a shard-tagged frame payload.
func AppendShardHeader(dst []byte, shard int) []byte {
	if shard < 0 || shard > MaxShard {
		panic(fmt.Sprintf("wire: shard index %d out of range [0,%d]", shard, MaxShard))
	}
	var hdr [ShardHeaderSize]byte
	hdr[0] = ShardMarker
	binary.LittleEndian.PutUint16(hdr[1:], uint16(shard))
	return append(dst, hdr[:]...)
}

// IsShardFrame reports whether a frame payload carries a shard tag.
func IsShardFrame(payload []byte) bool {
	return len(payload) >= ShardHeaderSize && payload[0] == ShardMarker
}

// ParseShardFrame splits a shard-tagged payload into its shard index
// and the batch-message bytes (decode those with ForEachMessage). It
// errors — never panics — on anything malformed: missing marker,
// truncated header, or an empty or misaligned message section.
func ParseShardFrame(payload []byte) (shard int, msgs []byte, err error) {
	if len(payload) < ShardHeaderSize || payload[0] != ShardMarker {
		return 0, nil, fmt.Errorf("wire: not a shard-tagged frame (len %d)", len(payload))
	}
	msgs = payload[ShardHeaderSize:]
	if len(msgs) == 0 || len(msgs)%payloadLen != 0 {
		return 0, nil, fmt.Errorf("wire: shard frame message section of %d bytes is not a positive multiple of %d", len(msgs), payloadLen)
	}
	return int(binary.LittleEndian.Uint16(payload[1:])), msgs, nil
}

// ResolveShard names the target shard of a batch frame received by an
// endpoint hosting `shards` protocol shards, and returns the frame's
// message bytes (decode those with ForEachMessage). A shard-tagged
// frame names its shard. An untagged frame is shard 0, but only when
// shards == 1: on a sharded endpoint it means the sender does not know
// the shard layout, and defaulting it to shard 0 would sample one ID
// domain in two shards (upstream) or leave the other shards filtering
// at threshold 0 forever (downstream). A malformed tag, a shard index
// beyond the hosted range, and an untagged frame on a sharded endpoint
// are all errors — the connection must be dropped — never a panic.
func ResolveShard(payload []byte, shards int) (shard int, msgs []byte, err error) {
	if !IsShardFrame(payload) {
		if shards > 1 {
			return 0, nil, fmt.Errorf("wire: untagged batch frame on a %d-shard endpoint", shards)
		}
		return 0, payload, nil
	}
	shard, msgs, err = ParseShardFrame(payload)
	if err != nil {
		return 0, nil, err
	}
	if shard >= shards {
		return 0, nil, fmt.Errorf("wire: frame for shard %d, endpoint hosts %d", shard, shards)
	}
	return shard, msgs, nil
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds max %d", len(payload), MaxFrameSize)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame into buf (growing it as
// needed) and returns the payload slice.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("wire: incoming frame of %d bytes exceeds max %d", n, MaxFrameSize)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadFrames reads frames from r until a read fails or fn returns an
// error, and returns that error. The payload passed to fn is reused by
// the next read.
func ReadFrames(r io.Reader, fn func(payload []byte) error) error {
	var buf []byte
	for {
		payload, err := ReadFrame(r, buf)
		if err != nil {
			return err
		}
		buf = payload
		if err := fn(payload); err != nil {
			return err
		}
	}
}

// WriteMessage encodes and writes one protocol message as a frame.
func WriteMessage(w io.Writer, m core.Message) error {
	return WriteFrame(w, AppendMessage(nil, m))
}

// ReadMessage reads and decodes one protocol message frame.
func ReadMessage(r io.Reader, buf []byte) (core.Message, []byte, error) {
	payload, err := ReadFrame(r, buf)
	if err != nil {
		return core.Message{}, payload, err
	}
	m, err := ParseMessage(payload)
	return m, payload, err
}
