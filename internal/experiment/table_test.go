package experiment

// Table.Write against the per-cell Fprintf renderer it replaced: the bytes
// every committed table and every cached run result is made of.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// referenceTableWrite is the renderer Table.Write replaced (its spaces()
// helper inlined), kept as the oracle.
func referenceTableWrite(t *Table, w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) error {
		for i, cell := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(cell)
			}
			sep := "  "
			if i == len(cells)-1 {
				sep = "\n"
			}
			if _, err := fmt.Fprintf(w, "%s%s%s", cell, strings.Repeat(" ", max(pad, 0)), sep); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeRow(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	if t.Caption != "" {
		if _, err := fmt.Fprintf(w, "-- %s\n", t.Caption); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

var tableCases = map[string]*Table{
	"plain": {Title: "Demo", Header: []string{"col", "longer column"},
		Rows: [][]string{{"a-very-long-cell", "b"}, {"c", "d"}}, Caption: "caption"},
	"no title, no caption": {Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}},
	"ragged": {Title: "t", Header: []string{"one", "two", "three"},
		Rows: [][]string{{"x"}, {}, {"x", "yy", "zzz", "past the header", "and more"}, nil, {"", "", ""}}},
	"no header":        {Title: "t", Rows: [][]string{{"a", "b"}, {"ccc"}}, Caption: "c"},
	"nothing":          {},
	"header only":      {Header: []string{"h1", "h2"}},
	"percent and verb": {Title: "100%s", Header: []string{"%d", "50%"}, Rows: [][]string{{"%v", "%"}}, Caption: "%!"},
	"wide utf-8": {Title: "µs — 延迟", Header: []string{"протокол", "µs"},
		Rows: [][]string{{"TCP-TRIM", "12.5µs"}, {"传输控制协议", "≈3"}}, Caption: "ΔACT ≥ 0"},
	"long title short rows": {Title: strings.Repeat("T", 300), Header: []string{"a"},
		Rows: [][]string{{"b"}}, Caption: strings.Repeat("C", 200)},
}

func TestTableWriteMatchesReference(t *testing.T) {
	for name, tbl := range tableCases {
		var want, got bytes.Buffer
		if err := referenceTableWrite(tbl, &want); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Write(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s:\n-- got --\n%q\n-- want --\n%q", name, got.Bytes(), want.Bytes())
		}
	}
}

// failAfter accepts n writes, then fails every later one.
type failAfter struct {
	n      int
	err    error
	writes int
}

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.n {
		return 0, f.err
	}
	return len(p), nil
}

// TestTableWriteReturnsWriterError: wherever the writer starts failing —
// title, header, a row, the caption, the closing blank line — Write stops
// there and returns that error.
func TestTableWriteReturnsWriterError(t *testing.T) {
	tbl := tableCases["plain"]
	const lines = 6 // title, header, two rows, caption, blank
	boom := errors.New("disk full")
	for n := 0; n < lines; n++ {
		w := &failAfter{n: n, err: boom}
		if err := tbl.Write(w); !errors.Is(err, boom) {
			t.Errorf("writer failing after %d lines: Write returned %v, want its error", n, err)
		}
		if w.writes != n+1 {
			t.Errorf("writer failing after %d lines saw %d writes, want %d (one per line, none after the failure)", n, w.writes, n+1)
		}
	}
	if w := (&failAfter{n: lines, err: boom}); tbl.Write(w) != nil || w.writes != lines {
		t.Errorf("healthy writer: %d writes, want %d", w.writes, lines)
	}
}

// TestTableWriteAllocsPerTable: the width slice and the line buffer, not
// one formatted string per cell.
func TestTableWriteAllocsPerTable(t *testing.T) {
	tbl := &Table{Title: "sweep", Header: []string{"protocol", "intensity", "window Mbps", "timeouts"}, Caption: "c"}
	for i := 0; i < 40; i++ {
		tbl.Rows = append(tbl.Rows, []string{"TCP-TRIM", "severe", "812.5", fmt.Sprint(i)})
	}
	var buf bytes.Buffer
	tbl.Write(&buf) // size the buffer once
	allocs := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := tbl.Write(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("Table.Write allocates %.0f times for a %d-cell table, want at most 2", allocs, 4*41)
	}
}
