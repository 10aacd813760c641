package disk

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func frames(t *testing.T, bodies ...string) []byte {
	t.Helper()
	var buf []byte
	for _, b := range bodies {
		var err error
		if buf, err = AppendFrame(buf, len(b), 1<<10, func(p []byte) []byte { return append(p, b...) }); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// readAll reads frames until a non-OK status, returning the bodies,
// the bytes they occupy and the final status.
func readAll(data []byte) (bodies []string, end int64, st Status) {
	fr := NewReader(bytes.NewReader(data), 1<<10)
	for {
		body, n, st, _ := fr.Next()
		if st != OK {
			return bodies, end, st
		}
		bodies, end = append(bodies, string(body)), end+n
	}
}

// TestFrameCutAtEveryOffset: every prefix of a stream of frames reads
// back as the frames wholly inside it, then a clean end on a frame
// boundary and a torn tail anywhere else.
func TestFrameCutAtEveryOffset(t *testing.T) {
	bodies := []string{"a", "", string(make([]byte, 200)), "last"}
	data := frames(t, bodies...)
	var bounds []int
	for i := range bodies {
		bounds = append(bounds, len(frames(t, bodies[:i+1]...)))
	}
	for cut := 0; cut <= len(data); cut++ {
		got, end, st := readAll(data[:cut])
		whole := 0
		for _, b := range bounds {
			if cut >= b {
				whole++
			}
		}
		want := End
		if whole == 0 && cut > 0 || whole > 0 && cut != bounds[whole-1] {
			want = Torn
		}
		if st != want || len(got) != whole || (whole > 0 && end != int64(bounds[whole-1])) {
			t.Fatalf("cut=%d: %d frames ending at %d, status %d; want %d frames, status %d", cut, len(got), end, st, whole, want)
		}
		for i, b := range got {
			if b != bodies[i] {
				t.Fatalf("cut=%d: body %d = %q, want %q", cut, i, b, bodies[i])
			}
		}
	}
}

// TestFrameCorruption: a flipped bit anywhere in a complete frame, or a
// length past the limit, is corruption, never a torn tail or a body.
func TestFrameCorruption(t *testing.T) {
	good := frames(t, "hello, frame")
	for at := range good {
		data := append([]byte(nil), good...)
		data[at] ^= 0x04
		if got, _, st := readAll(data); st != Corrupt && !(st == Torn && at == 0) {
			// A flipped length byte may announce a longer body, which
			// reads as a torn tail; any other flip must fail the check.
			t.Errorf("flip at %d: status %d with %q, want corrupt", at, st, got)
		}
	}
	for name, data := range map[string][]byte{
		"length past the limit": {0x81, 0x08, 0, 0, 0, 0},
		"length overflows":      bytes.Repeat([]byte{0xff}, 11),
	} {
		if _, _, st := readAll(data); st != Corrupt {
			t.Errorf("%s: status %d, want corrupt", name, st)
		}
	}
	if _, err := AppendFrame(nil, 2000, 1<<10, func(p []byte) []byte { return append(p, make([]byte, 2000)...) }); err == nil {
		t.Error("frame past the limit written")
	}
	if _, err := AppendFrame(nil, 3, 1<<10, func(p []byte) []byte { return append(p, 1, 2) }); err == nil {
		t.Error("frame sized 3 and encoded 2 written")
	}
}

// countSyncs counts the file and directory syncs Replace makes.
func countSyncs(t *testing.T) *int {
	n := new(int)
	syncFile = func(f *os.File) error { *n++; return f.Sync() }
	t.Cleanup(func() { syncFile = (*os.File).Sync })
	return n
}

// TestReplaceSyncs pins the durability rule: a durable replace syncs
// the new file before the rename and the directory after it; a
// non-durable one syncs nothing.
func TestReplaceSyncs(t *testing.T) {
	for _, tc := range []struct {
		durable bool
		syncs   int
	}{{true, 2}, {false, 0}} {
		syncs := countSyncs(t)
		path := filepath.Join(t.TempDir(), "file")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := Replace(path, tc.durable, func(w io.Writer) error { _, err := w.Write([]byte("new")); return err })
		if err != nil {
			t.Fatal(err)
		}
		// The returned handle appends to the file now at path.
		if _, err := f.Write([]byte("+")); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != "new+" {
			t.Fatalf("durable=%v: file holds %q (err %v), want \"new+\"", tc.durable, data, err)
		}
		if *syncs != tc.syncs {
			t.Errorf("durable=%v: %d syncs, want %d", tc.durable, *syncs, tc.syncs)
		}
	}
}

// TestReplaceFailureKeepsOldFile: a write that fails leaves the old
// file in place and no temporary file behind.
func TestReplaceFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "file")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	f, err := Replace(path, true, func(w io.Writer) error {
		_, _ = w.Write([]byte("partial"))
		return boom
	})
	if f != nil || !errors.Is(err, boom) {
		t.Fatalf("Replace = %v, %v; want no file and the write's error", f, err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "old" {
		t.Fatalf("file holds %q (err %v), want \"old\"", data, err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (err %v), want only the file", len(entries), err)
	}
}
