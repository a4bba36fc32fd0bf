package core

import "fmt"

// bdiScheme is the paper's compressor: dynamic base-delta-immediate over the
// three fixed parameter choices <4,0>, <4,1>, <4,2> (Figure 7). It is the
// DefaultScheme, and its Choose is exactly Mode.Choose: the fixed-choice
// policies of the bdi-40/41/42 compression points restrict it.
type bdiScheme struct{}

func (bdiScheme) Name() string    { return "bdi" }
func (bdiScheme) NumClasses() int { return NumEncodings }

func (bdiScheme) ClassName(e Encoding) string { return e.String() }
func (bdiScheme) Banks(e Encoding) int        { return e.Banks() }

func (bdiScheme) CompressedBytes(e Encoding) int { return e.CompressedBytes() }

func (bdiScheme) Compressible(vals *WarpReg, e Encoding) bool {
	if e == EncUncompressed {
		return true
	}
	return deltaWidth(vals) <= int(e.Params().Delta)
}

func (bdiScheme) Choose(reg int, vals *WarpReg, m Mode) Encoding {
	return m.Choose(vals)
}

func (bdiScheme) CompressInto(dst []byte, vals *WarpReg, e Encoding) ([]byte, bool) {
	if e == EncUncompressed {
		return vals.AppendBytes(dst), true
	}
	var buf [WarpBytes]byte
	data := vals.AppendBytes(buf[:0])
	return CompressInto(dst, data, e.Params())
}

func (bdiScheme) Decompress(comp []byte, e Encoding, out *WarpReg) error {
	if e == EncUncompressed {
		w, err := WarpRegFromBytes(comp)
		if err != nil {
			return err
		}
		*out = w
		return nil
	}
	var buf [WarpBytes]byte
	if err := Decompress(comp, e.Params(), buf[:]); err != nil {
		return err
	}
	w, err := WarpRegFromBytes(buf[:])
	if err != nil {
		return fmt.Errorf("core: bdi decompress: %w", err)
	}
	*out = w
	return nil
}
