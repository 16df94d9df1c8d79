package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"

	"wrs/internal/core"
	"wrs/internal/stream"
)

func TestMessageRoundTrip(t *testing.T) {
	msgs := []core.Message{
		{Kind: core.MsgEarly, Item: stream.Item{ID: 42, Weight: 3.25}},
		{Kind: core.MsgRegular, Item: stream.Item{ID: 7, Weight: 1e12}, Key: 123.456},
		{Kind: core.MsgLevelSaturated, Level: 17},
		{Kind: core.MsgLevelSaturated, Level: -1},
		{Kind: core.MsgEpochUpdate, Threshold: 1024},
	}
	for _, m := range msgs {
		got, err := ParseMessage(AppendMessage(nil, m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got != m {
			t.Errorf("round trip changed message: %+v -> %+v", m, got)
		}
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(kindRaw uint8, id uint64, w, aux float64, level int32) bool {
		kind := core.MsgKind(kindRaw % 4)
		m := core.Message{Kind: kind, Level: int(level)}
		switch kind {
		case core.MsgEarly:
			m.Item = stream.Item{ID: id, Weight: w}
			m.Level = 0
		case core.MsgRegular:
			m.Item = stream.Item{ID: id, Weight: w}
			m.Key = aux
			m.Level = 0
		case core.MsgLevelSaturated:
		case core.MsgEpochUpdate:
			m.Threshold = aux
			m.Level = 0
		}
		if math.IsNaN(w) || math.IsNaN(aux) {
			return true // NaN != NaN; protocol never sends NaN
		}
		got, err := ParseMessage(AppendMessage(nil, m))
		return err == nil && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestParseMessageErrors(t *testing.T) {
	if _, err := ParseMessage(make([]byte, 5)); err == nil {
		t.Error("short payload accepted")
	}
	bad := AppendMessage(nil, core.Message{Kind: core.MsgEarly})
	bad[0] = 99
	if _, err := ParseMessage(bad); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for _, want := range payloads {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame mismatch: %v vs %v", got, want)
		}
		scratch = got
	}
	if _, err := ReadFrame(&buf, scratch); err != io.EOF {
		t.Errorf("expected EOF after last frame, got %v", err)
	}
}

func TestFrameSizeLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrameSize+1)); err == nil {
		t.Error("oversize write accepted")
	}
	// Forge an oversized header.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf, nil); err == nil {
		t.Error("oversize incoming frame accepted")
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(trunc), nil); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	msgs := []core.Message{
		{Kind: core.MsgEarly, Item: stream.Item{ID: 1, Weight: 0.5}},
		{Kind: core.MsgRegular, Item: stream.Item{ID: 2, Weight: 7}, Key: 3.5},
		{Kind: core.MsgEpochUpdate, Threshold: 64},
		{Kind: core.MsgLevelSaturated, Level: 3},
	}
	payload := AppendMessages(nil, msgs)
	if len(payload) != len(msgs)*MessageSize {
		t.Fatalf("batch payload %d bytes, want %d", len(payload), len(msgs)*MessageSize)
	}
	var got []core.Message
	if err := ForEachMessage(payload, func(m core.Message) { got = append(got, m) }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if got[i] != msgs[i] {
			t.Errorf("message %d: got %+v, want %+v", i, got[i], msgs[i])
		}
	}
	// A single message is a valid batch of one.
	one := AppendMessage(nil, msgs[0])
	n := 0
	if err := ForEachMessage(one, func(core.Message) { n++ }); err != nil || n != 1 {
		t.Errorf("single-message batch: n=%d err=%v", n, err)
	}
}

func TestBatchErrors(t *testing.T) {
	if err := ForEachMessage(nil, func(core.Message) { t.Error("fn called on empty batch") }); err == nil {
		t.Error("empty batch accepted")
	}
	if err := ForEachMessage(make([]byte, MessageSize+1), func(core.Message) { t.Error("fn called on ragged batch") }); err == nil {
		t.Error("ragged batch length accepted")
	}
	// A decode error mid-batch stops the iteration with an error.
	payload := AppendMessages(nil, []core.Message{
		{Kind: core.MsgEarly, Item: stream.Item{ID: 1, Weight: 1}},
		{Kind: core.MsgEarly, Item: stream.Item{ID: 2, Weight: 1}},
	})
	payload[MessageSize] = 99 // corrupt the second message's kind
	n := 0
	if err := ForEachMessage(payload, func(core.Message) { n++ }); err == nil {
		t.Error("corrupt batch accepted")
	}
	if n != 1 {
		t.Errorf("iteration processed %d messages before the corrupt one, want 1", n)
	}
}

func TestWriteReadMessage(t *testing.T) {
	var buf bytes.Buffer
	want := core.Message{Kind: core.MsgRegular, Item: stream.Item{ID: 5, Weight: 2.5}, Key: 9.75}
	if err := WriteMessage(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadMessage(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestReadFramesStopsOnHandlerError(t *testing.T) {
	var b bytes.Buffer
	for _, p := range [][]byte{{1}, {2, 2}, {3}} {
		if err := WriteFrame(&b, p); err != nil {
			t.Fatal(err)
		}
	}
	stop := errors.New("stop")
	var got []int
	err := ReadFrames(&b, func(p []byte) error {
		got = append(got, len(p))
		if len(p) == 2 {
			return stop
		}
		return nil
	})
	if err != stop || len(got) != 2 {
		t.Fatalf("ReadFrames = %v after frames %v, want the handler's error after 2", err, got)
	}
	if err := ReadFrames(&b, func([]byte) error { return nil }); err != io.EOF {
		t.Fatalf("ReadFrames at end of stream = %v, want io.EOF", err)
	}
}
