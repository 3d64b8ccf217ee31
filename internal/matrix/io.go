package matrix

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The on-disk formats mirror the paper's Table 3: a text format ("a.txt",
// one matrix row per line, space-separated decimal values) and a binary
// format (little-endian float64, 8 bytes/element plus a small header).

// WriteText writes m in the text format: each row on its own line, elements
// separated by single spaces, formatted with %.17g so values round-trip.
func WriteText(w io.Writer, m *Dense) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', 17, 64)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format. Every line must contain the same number
// of values; blank lines are ignored.
func ReadText(r io.Reader) (*Dense, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	var rows [][]float64
	cols := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if cols == -1 {
			cols = len(fields)
		} else if len(fields) != cols {
			return nil, fmt.Errorf("matrix: ReadText line %d has %d values, want %d", lineNo, len(fields), cols)
		}
		row := make([]float64, len(fields))
		for j, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("matrix: ReadText line %d field %d: %w", lineNo, j, err)
			}
			row[j] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromRows(rows), nil
}

// binaryMagic identifies the binary matrix format.
const binaryMagic = uint32(0x4d585236) // "MXR6"

// WriteBinary writes m in the binary format: magic, rows, cols (uint32 LE)
// followed by rows*cols little-endian float64 values in row-major order.
func WriteBinary(w io.Writer, m *Dense) error {
	bw := bufio.NewWriter(w)
	hdr := []uint32{binaryMagic, uint32(m.Rows), uint32(m.Cols)}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	buf := make([]byte, 8)
	for _, v := range m.Data {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ErrTooLarge reports a binary matrix whose encoded size exceeds the
// limit passed to ReadBinaryLimit. It is returned before any element
// storage is allocated, so callers reading untrusted input can bound
// memory by the limit alone.
var ErrTooLarge = errors.New("matrix: encoded size exceeds limit")

// ReadBinary parses the binary format written by WriteBinary. The input
// is trusted: dimensions are taken from the header (capped only at the
// format's 1<<24 bound each). For untrusted readers use ReadBinaryLimit.
func ReadBinary(r io.Reader) (*Dense, error) {
	return ReadBinaryLimit(r, 0)
}

// ReadBinaryLimit parses the binary format, rejecting any matrix whose
// total encoded size (header plus payload, per BinarySize) exceeds
// maxBytes with ErrTooLarge. The check runs before element storage is
// allocated: the header's dimensions are untrusted, so a hostile
// 12-byte request cannot demand a rows*cols*8 allocation larger than
// the caller's bound. maxBytes <= 0 means no limit beyond the format's
// own dimension cap.
func ReadBinaryLimit(r io.Reader, maxBytes int64) (*Dense, error) {
	br := bufio.NewReader(r)
	var magic, rows, cols uint32
	for _, p := range []*uint32{&magic, &rows, &cols} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("matrix: ReadBinary header: %w", err)
		}
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("matrix: ReadBinary bad magic %#x", magic)
	}
	if rows > 1<<24 || cols > 1<<24 {
		return nil, fmt.Errorf("matrix: ReadBinary implausible dims %dx%d", rows, cols)
	}
	if maxBytes > 0 && BinarySize(int(rows), int(cols)) > maxBytes {
		return nil, fmt.Errorf("matrix: ReadBinary %dx%d needs %d bytes, limit %d: %w",
			rows, cols, BinarySize(int(rows), int(cols)), maxBytes, ErrTooLarge)
	}
	m := New(int(rows), int(cols))
	buf := make([]byte, 8)
	for i := range m.Data {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("matrix: ReadBinary element %d: %w", i, err)
		}
		m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	}
	return m, nil
}

// DecodeBinary parses the binary format from b, an encoding already held
// in memory (a DFS file, a stored block). It accepts exactly what
// ReadBinary accepts, bytes after the payload included, and decodes the
// elements straight from b. It checks that b holds the whole payload
// before allocating, so a header can never demand more memory than the
// bytes it came with. Streams (HTTP bodies) go through ReadBinaryLimit.
func DecodeBinary(b []byte) (*Dense, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("matrix: DecodeBinary header: %d of 12 bytes: %w", len(b), io.ErrUnexpectedEOF)
	}
	magic := binary.LittleEndian.Uint32(b)
	rows, cols := binary.LittleEndian.Uint32(b[4:]), binary.LittleEndian.Uint32(b[8:])
	if magic != binaryMagic {
		return nil, fmt.Errorf("matrix: DecodeBinary bad magic %#x", magic)
	}
	if rows > 1<<24 || cols > 1<<24 {
		return nil, fmt.Errorf("matrix: DecodeBinary implausible dims %dx%d", rows, cols)
	}
	if size := BinarySize(int(rows), int(cols)); int64(len(b)) < size {
		return nil, fmt.Errorf("matrix: DecodeBinary %dx%d needs %d bytes, have %d: %w",
			rows, cols, size, len(b), io.ErrUnexpectedEOF)
	}
	m := New(int(rows), int(cols))
	p := b[12:]
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return m, nil
}

// BinarySize returns the exact byte size of an r x c matrix in the binary
// format. Used for Table 3 style size reporting.
func BinarySize(r, c int) int64 { return 12 + 8*int64(r)*int64(c) }

// TextSizeEstimate estimates the byte size of an r x c random matrix in the
// text format, assuming the paper's ~20 characters per element (Table 3
// shows text ≈ 2.5x binary for double precision values).
func TextSizeEstimate(r, c int) int64 { return 20 * int64(r) * int64(c) }
