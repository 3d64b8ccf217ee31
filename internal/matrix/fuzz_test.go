package matrix

import (
	"bytes"
	"math"
	"testing"
)

// Native fuzz targets for the on-disk codecs. Under plain `go test`
// these run the seed corpus; `go test -fuzz=FuzzReadBinary ./internal/matrix`
// explores further. The invariant in each: arbitrary input must never
// panic, and when parsing succeeds the value must re-encode and re-parse
// to the same matrix.

func FuzzReadText(f *testing.F) {
	f.Add("1 2\n3 4\n")
	f.Add("")
	f.Add("1.5e308 -0\n")
	f.Add("nan inf\n")
	f.Add("x y\n")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ReadText(bytes.NewReader([]byte(s)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteText(&buf, m); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadText(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Rows != m.Rows || again.Cols != m.Cols {
			t.Fatalf("round-trip changed shape: %dx%d vs %dx%d", again.Rows, again.Cols, m.Rows, m.Cols)
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteBinary(&seed, FromRows([][]float64{{1, 2}, {3, 4}}))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x36, 0x52, 0x58, 0x4d, 1, 0, 0, 0, 1, 0, 0, 0}) // header, no payload
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, m); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if !Equal(again, m, 0) && IsFinite(m) {
			t.Fatal("round-trip changed finite values")
		}
	})
}

// FuzzDecodeBinary checks the slice decoder against the streaming one:
// on every input both return the same matrix, bit for bit, or both fail.
// The streaming side reads through ReadBinaryLimit bounded by one byte
// past the input's length (a limit of 0 would mean none): on inputs that
// hold their whole payload that is ReadBinary, and on the rest ReadBinary
// fails too, only after allocating what the header asks for.
func FuzzDecodeBinary(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteBinary(&seed, FromRows([][]float64{{1, -0.0}, {3, 4}, {5, 6}}))
	whole := seed.Bytes()
	f.Add(whole)
	f.Add(append(append([]byte(nil), whole...), 0xde, 0xad)) // trailing bytes
	for _, cut := range []int{0, 3, 11, 12, 13, len(whole) - 1} {
		f.Add(append([]byte(nil), whole[:cut]...)) // truncated
	}
	bad := append([]byte(nil), whole...)
	bad[0] ^= 0xff
	f.Add(bad)                                                          // bad magic
	f.Add([]byte{0x36, 0x52, 0x58, 0x4d, 0, 0, 0, 1, 0, 0, 0, 1})       // 1<<24 x 1<<24, no payload
	f.Add([]byte{0x36, 0x52, 0x58, 0x4d, 1, 0, 0, 1, 1, 0, 0, 0})       // rows past the dimension cap
	f.Add([]byte{0x36, 0x52, 0x58, 0x4d, 0, 0, 0, 0, 0xff, 0xff, 0, 0}) // 0 x 65535: empty
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := DecodeBinary(data)
		want, werr := ReadBinaryLimit(bytes.NewReader(data), int64(len(data))+1)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("DecodeBinary err %v, ReadBinary err %v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		if got.Rows != want.Rows || got.Cols != want.Cols || len(got.Data) != len(want.Data) {
			t.Fatalf("shape %dx%d, ReadBinary %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("element %d: %v vs ReadBinary %v", i, v, want.Data[i])
			}
		}
	})
}

func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("%%MatrixMarket matrix array real general\n% c\n1 1\n1\n")
	f.Add("junk")
	f.Add("%%MatrixMarket matrix array real general\n-1 -1\n")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ReadMatrixMarket(bytes.NewReader([]byte(s)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if _, err := ReadMatrixMarket(&buf); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
	})
}
