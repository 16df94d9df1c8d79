package wire

import (
	"bytes"
	"testing"

	"wrs/internal/core"
	"wrs/internal/stream"
)

func shardFrame(shard int, msgs ...core.Message) []byte {
	payload := AppendShardHeader(nil, shard)
	return AppendMessages(payload, msgs)
}

func TestShardFrameRoundTrip(t *testing.T) {
	msgs := []core.Message{
		{Kind: core.MsgRegular, Item: stream.Item{ID: 7, Weight: 2.5}, Key: 9.25},
		{Kind: core.MsgEarly, Item: stream.Item{ID: 8, Weight: 1e9}},
	}
	for _, shard := range []int{0, 1, 41, MaxShard} {
		payload := shardFrame(shard, msgs...)
		if !IsShardFrame(payload) {
			t.Fatalf("shard %d: IsShardFrame false", shard)
		}
		got, body, err := ParseShardFrame(payload)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if got != shard {
			t.Errorf("parsed shard %d, want %d", got, shard)
		}
		var decoded []core.Message
		if err := ForEachMessage(body, func(m core.Message) { decoded = append(decoded, m) }); err != nil {
			t.Fatal(err)
		}
		if len(decoded) != len(msgs) {
			t.Fatalf("decoded %d messages, want %d", len(decoded), len(msgs))
		}
		for i := range msgs {
			if decoded[i] != msgs[i] {
				t.Errorf("message %d: got %+v, want %+v", i, decoded[i], msgs[i])
			}
		}
	}
}

// TestShardFrameUnambiguous pins the dispatch rule: a plain batch frame
// is never mistaken for a shard frame (message kinds are 0..3, the
// marker is neither), and control frames are too short.
func TestShardFrameUnambiguous(t *testing.T) {
	plain := AppendMessage(nil, core.Message{Kind: core.MsgEpochUpdate, Threshold: 4})
	if IsShardFrame(plain) {
		t.Error("plain batch frame classified as shard frame")
	}
	if IsShardFrame([]byte{200}) || IsShardFrame([]byte{201}) {
		t.Error("control frame classified as shard frame")
	}
	if _, _, err := ParseShardFrame(plain); err == nil {
		t.Error("plain batch frame parsed as shard frame")
	}
}

func TestParseShardFrameMalformed(t *testing.T) {
	valid := shardFrame(3, core.Message{Kind: core.MsgEarly, Item: stream.Item{ID: 1, Weight: 1}})
	cases := map[string][]byte{
		"empty":             {},
		"marker only":       {ShardMarker},
		"truncated header":  {ShardMarker, 0x01},
		"header no msgs":    {ShardMarker, 0x01, 0x00},
		"misaligned msgs":   append(append([]byte{}, valid...), 0xAB),
		"truncated message": valid[:len(valid)-1],
	}
	for name, payload := range cases {
		if _, _, err := ParseShardFrame(payload); err == nil {
			t.Errorf("%s: malformed shard frame accepted", name)
		}
	}
}

// TestResolveShard is the shared resolver every endpoint runs on a
// received batch frame — server and relay on upstream frames, site
// client and relay on broadcasts. The endpoint-level tests
// (transport's TestShardedServerRejects* and TestShardedClientRejects,
// relay's TestProcessFramesMalformed) drive these rows over a real
// connection or a relay machine.
func TestResolveShard(t *testing.T) {
	msg := core.Message{Kind: core.MsgEpochUpdate, Threshold: 4}
	plain := AppendMessage(nil, msg)
	cases := []struct {
		name      string
		payload   []byte
		shards    int
		wantShard int // -1: must be rejected
	}{
		{"untagged on unsharded", plain, 1, 0},
		{"tagged in range", shardFrame(1, msg), 2, 1},
		{"tagged shard 0 on unsharded", shardFrame(0, msg), 1, 0},
		{"untagged on sharded", plain, 2, -1},
		{"tag beyond hosted", shardFrame(2, msg), 2, -1},
		{"tag beyond unsharded", shardFrame(1, msg), 1, -1},
		{"truncated header", []byte{ShardMarker, 0x01}, 2, -1},
		{"misaligned tagged section", append(shardFrame(0, msg), 0xAB), 2, -1},
	}
	for _, tc := range cases {
		shard, body, err := ResolveShard(tc.payload, tc.shards)
		if tc.wantShard < 0 {
			if err == nil {
				t.Errorf("%s: accepted as shard %d", tc.name, shard)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if shard != tc.wantShard || !bytes.Equal(body, plain) {
			t.Errorf("%s: got shard %d body % x, want shard %d body % x", tc.name, shard, body, tc.wantShard, plain)
		}
	}
}

func TestAppendShardHeaderPanicsOutOfRange(t *testing.T) {
	for _, shard := range []int{-1, MaxShard + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("shard %d: no panic", shard)
				}
			}()
			AppendShardHeader(nil, shard)
		}()
	}
}

// FuzzParseShardFrame ensures shard-frame parsing errors — never
// panics — on arbitrary payloads, and that every accepted payload
// round-trips canonically through re-encoding.
func FuzzParseShardFrame(f *testing.F) {
	f.Add(shardFrame(0, core.Message{Kind: core.MsgEarly, Item: stream.Item{ID: 1, Weight: 2}}))
	f.Add(shardFrame(65535, core.Message{Kind: core.MsgRegular, Item: stream.Item{ID: 9, Weight: 1}, Key: 3}))
	f.Add([]byte{ShardMarker})
	f.Add([]byte{ShardMarker, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{ShardMarker}, ShardHeaderSize+MessageSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, hosted := range []int{1, 2} {
			if shard, _, err := ResolveShard(data, hosted); err == nil && shard >= hosted {
				t.Fatalf("resolver accepted shard %d on a %d-shard endpoint", shard, hosted)
			}
		}
		shard, body, err := ParseShardFrame(data)
		if err != nil {
			return
		}
		if shard < 0 || shard > MaxShard {
			t.Fatalf("accepted shard index %d out of range", shard)
		}
		if len(body) == 0 || len(body)%MessageSize != 0 {
			t.Fatalf("accepted misaligned message section of %d bytes", len(body))
		}
		re := AppendShardHeader(nil, shard)
		re = append(re, body...)
		if !bytes.Equal(re, data) {
			t.Fatalf("shard frame not canonical: % x vs % x", re, data)
		}
	})
}
