package codec

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode feeds the decoder hostile byte streams. The seed corpus
// is one valid frame per registry fixture and the frames of retired
// tags and the old wire version, plus truncations and bit flips of
// each; the fuzzer mutates from there. The properties under
// test:
//
//   - hostile bytes never panic the decoder;
//   - every Decode makes progress (a wedged frame reader would hang
//     the target and trip the fuzzer's timeout);
//   - recoverable damage costs one frame — the decoder keeps serving
//     the stream afterwards;
//   - anything that decodes re-encodes canonically and decodes again
//     to the same message (no lossy or ambiguous parses survive).
//
// Allocation bounding (a hostile count cannot pre-allocate past the
// bytes actually received) is enforced structurally by reader.count
// and the frame-length arena; see wire.go.
func FuzzDecode(f *testing.F) {
	var frames [][]byte
	for _, fix := range registryFixtures() {
		var buf bytes.Buffer
		encodeFrame(f, &buf, Envelope{From: 3, Msg: fix.Msg})
		frames = append(frames, buf.Bytes())
	}
	retired, _ := retiredFrames(f)
	for _, frame := range append(frames, retired...) {
		f.Add(append([]byte(nil), frame...))
		if len(frame) > 7 {
			f.Add(append([]byte(nil), frame[:len(frame)-3]...))
			f.Add(append([]byte(nil), frame[:5]...))
		}
		for _, pos := range []int{0, 4, 5, 6, len(frame) / 2, len(frame) - 1} {
			flipped := append([]byte(nil), frame...)
			flipped[pos] ^= 0x41
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		for {
			env, err := dec.Decode()
			if err != nil {
				if Recoverable(err) {
					// Exactly one frame was consumed; the stream must
					// still be servable.
					continue
				}
				return
			}
			// Whatever decoded must re-encode (canonical form is never
			// larger than the received frame) and decode back equal.
			var out bytes.Buffer
			re := NewEncoder(&out)
			if _, err := re.Encode(Envelope{From: env.From, Msg: env.Msg}); err != nil {
				t.Fatalf("re-encode of decoded %T: %v", env.Msg, err)
			}
			if err := re.Flush(); err != nil {
				t.Fatal(err)
			}
			env2, err := NewDecoder(bytes.NewReader(out.Bytes())).Decode()
			if err != nil {
				t.Fatalf("decode of re-encoded %T: %v", env.Msg, err)
			}
			if env2.From != env.From || !reflect.DeepEqual(env2.Msg, env.Msg) {
				t.Fatalf("re-encode round trip diverged for %T", env.Msg)
			}
		}
	})
}
