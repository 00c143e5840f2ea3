package traceanalysis

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// eventsDoc is a trace document of as many spanEvents as fit, padded with
// trailing spaces to exactly size bytes.
func eventsDoc(tb testing.TB, size int) []byte {
	tb.Helper()
	var b bytes.Buffer
	b.WriteString(`{"traceEvents":[`)
	for i := 0; b.Len()+len(spanEvent(i))+3 <= size; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(spanEvent(i))
	}
	b.WriteString("]}")
	if b.Len() > size {
		tb.Fatalf("%d-byte document does not fit %d bytes", b.Len(), size)
	}
	b.WriteString(strings.Repeat(" ", size-b.Len()))
	return b.Bytes()
}

// spanEvent is the i-th event of eventsDoc.
func spanEvent(i int) string {
	return fmt.Sprintf(`{"name":"kernel-%d","cat":"kernel","ph":"X","ts":%d,"dur":2.5,"pid":0,"tid":%d}`, i%7, i, i%4)
}

// quotedSplitDoc is a document of at least splitMin bytes whose first "},{"
// past the middle lies inside a string: the guess of the split is wrong,
// and the walk must drop the tail and go on alone. It returns that byte.
func quotedSplitDoc(tb testing.TB) ([]byte, int) {
	tb.Helper()
	half := eventsDoc(tb, splitMin/2)
	events := half[len(`{"traceEvents":[`):bytes.LastIndex(half, []byte("]}"))]
	trick := `{"name":"` + strings.Repeat("a", 64) + `},{` + strings.Repeat("b", 64) + `","cat":"x","ph":"X","ts":0,"dur":1,"tid":0}`
	doc := []byte(`{"traceEvents":[` + string(events) + "," + trick + "," + string(events) + `]}`)
	mid := len(doc) / 2
	at := boundary(doc, mid)
	if in := bytes.Index(doc, []byte(trick)); len(doc) < splitMin || at < in || at > in+len(trick) {
		tb.Fatalf("the first \"},{\" past byte %d of %d is at %d, not inside the string at %d", mid, len(doc), at, in)
	}
	return doc, at
}

// TestLoadFileMatchesLoad holds LoadFile, which reads a long file in two
// halves at once, to Load of what os.ReadFile reads at one CPU: the same
// spans and error text, offsets included, but that a parse error is
// prefixed with the file's path, at widths 1, 2 and 4. The documents are the recorded
// run, whole and cut on either side of its middle and inside the first
// event of its second half; a document whose split guess falls inside a
// string, whole and cut likewise and around the guess; documents one byte
// short of splitMin and of exactly splitMin bytes; an empty file, null, and
// a file that is not there.
func TestLoadFileMatchesLoad(t *testing.T) {
	docs := map[string][]byte{
		"below-split": eventsDoc(t, splitMin-1),
		"at-split":    eventsDoc(t, splitMin),
		"empty":       {},
		"null":        []byte("null"),
	}
	cut := func(name string, data []byte, at ...int) {
		docs[name] = data
		for _, n := range at {
			docs[fmt.Sprintf("%s[:%d]", name, n)] = data[:n]
		}
	}
	rec := recordedTrace(t, 300)
	cut("recorded", rec, len(rec)/2-1, len(rec)/2+1, boundary(rec, len(rec)/2)+8)
	quoted, at := quotedSplitDoc(t)
	cut("quoted", quoted, len(quoted)/2-1, len(quoted)/2+1, at, at+1, at+8)

	type loaded struct {
		spans []Span
		err   error
	}
	dir := t.TempDir()
	paths := map[string]string{"missing": filepath.Join(dir, "missing.json")}
	for name, data := range docs {
		path := filepath.Join(dir, fmt.Sprintf("doc%d.json", len(paths)))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths[name] = path
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := map[string]loaded{}
	for name, path := range paths {
		var w loaded
		if data, err := os.ReadFile(path); err != nil {
			w.err = fmt.Errorf("traceanalysis: %w", err)
		} else if w.spans, w.err = Load(data); w.err != nil {
			w.err = fmt.Errorf("%s: %w", path, w.err)
		}
		want[name] = w
	}
	for _, width := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(width)
		for name, path := range paths {
			var got loaded
			got.spans, got.err = LoadFile(path)
			w := want[name]
			if !reflect.DeepEqual(got.spans, w.spans) || fmt.Sprint(got.err) != fmt.Sprint(w.err) {
				t.Errorf("width %d, %s: LoadFile read %d spans, error %v; Load read %d, error %v",
					width, name, len(got.spans), got.err, len(w.spans), w.err)
			}
		}
	}
}

// BenchmarkTraceLoadFile is BenchmarkTraceLoad through the file: the
// recorded run's trace written once, then read and scanned by LoadFile.
func BenchmarkTraceLoadFile(b *testing.B) {
	data := recordedTrace(b, 300)
	path := filepath.Join(b.TempDir(), "trace.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spans, err := LoadFile(path)
		if err != nil || len(spans) == 0 {
			b.Fatal(err)
		}
	}
}
