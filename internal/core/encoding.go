package core

import (
	"encoding/binary"
	"fmt"
)

// WarpReg is the value vector of one warp register: one 32-bit value per
// SIMT lane.
type WarpReg [32]uint32

// Bytes returns the 128-byte little-endian image of the warp register, the
// form the BDI algorithm operates on. It allocates; hot paths should use
// AppendBytes with a reusable buffer instead.
func (w *WarpReg) Bytes() []byte {
	return w.AppendBytes(make([]byte, 0, WarpBytes))
}

// AppendBytes appends the 128-byte little-endian image of the warp register
// to buf and returns the extended slice. With a caller-owned buffer of
// capacity WarpBytes it performs no heap allocation.
func (w *WarpReg) AppendBytes(buf []byte) []byte {
	n := len(buf)
	buf = append(buf, make([]byte, WarpBytes)...)
	for i, v := range w {
		binary.LittleEndian.PutUint32(buf[n+i*4:], v)
	}
	return buf
}

// WarpRegFromBytes parses a 128-byte image back into lane values.
func WarpRegFromBytes(b []byte) (WarpReg, error) {
	var w WarpReg
	if len(b) != WarpBytes {
		return w, fmt.Errorf("core: warp register image must be %d bytes, got %d", WarpBytes, len(b))
	}
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return w, nil
}

// Encoding is the 2-bit compression range indicator stored per warp register
// beside the bank arbiter (paper §4). It names which of the three fixed
// compression choices holds the register, or that it is uncompressed.
type Encoding uint8

const (
	// EncUncompressed: full 128 bytes across 8 banks.
	EncUncompressed Encoding = iota
	// Enc40: <4,0> — all 32 lanes identical; 4 bytes, 1 bank. This is the
	// scalarization special case (paper §6.6).
	Enc40
	// Enc41: <4,1> — 1-byte deltas; 35 bytes, 3 banks.
	Enc41
	// Enc42: <4,2> — 2-byte deltas; 66 bytes, 5 banks.
	Enc42
	numEncodings
)

// NumEncodings is the number of encoding classes a register can be tagged
// with (the uncompressed class plus three compressed classes). Every
// registered Compressor maps its pattern classes onto this fixed class
// space so the per-register 2-bit tag, the stats histograms and the result
// document shape are scheme-independent.
const NumEncodings = int(numEncodings)

var encodingParams = [numEncodings]Params{
	EncUncompressed: {},
	Enc40:           {4, 0},
	Enc41:           {4, 1},
	Enc42:           {4, 2},
}

var encodingBanks = [numEncodings]int{
	EncUncompressed: WarpBanks,
	Enc40:           1,
	Enc41:           3,
	Enc42:           5,
}

func (e Encoding) String() string {
	switch e {
	case EncUncompressed:
		return "uncompressed"
	case Enc40:
		return "<4,0>"
	case Enc41:
		return "<4,1>"
	case Enc42:
		return "<4,2>"
	}
	return fmt.Sprintf("enc%d", uint8(e))
}

// Banks returns how many 16-byte register banks the encoding occupies.
func (e Encoding) Banks() int { return encodingBanks[e] }

// CompressedBytes returns the stored size of the encoding.
func (e Encoding) CompressedBytes() int {
	if e == EncUncompressed {
		return WarpBytes
	}
	return encodingParams[e].CompressedSize()
}

// Params returns the BDI parameters of a compressed encoding; calling it for
// EncUncompressed is a bug.
func (e Encoding) Params() Params {
	if e == EncUncompressed {
		panic("core: EncUncompressed has no BDI params")
	}
	return encodingParams[e]
}

// IsCompressed reports whether the encoding is one of the compressed forms.
func (e Encoding) IsCompressed() bool { return e != EncUncompressed }

// Mode is the policy a Compressor's Choose runs under. Configurations never
// name it directly: sim.Config.Compression names a CompressionPoint, which
// pairs a backend with its policy. The modes beyond ModeWarped exist for the
// paper's design-space exploration and restrict the BDI backend only. The
// numeric values are the m token of the cfg/v1 configuration signature.
type Mode uint8

const (
	// ModeOff disables compression entirely (the paper's baseline).
	ModeOff Mode = iota
	// ModeWarped is warped-compression: dynamically pick the smallest of
	// <4,0>, <4,1>, <4,2>, else store uncompressed (paper default).
	ModeWarped
	// ModeOnly40 / ModeOnly41 / ModeOnly42 statically restrict the choice
	// to a single parameter set (paper §6.6, Figs 15/16). ModeOnly40 is
	// equivalent to scalarization [33].
	ModeOnly40
	ModeOnly41
	ModeOnly42
)

// Enabled reports whether the mode performs any compression.
func (m Mode) Enabled() bool { return m != ModeOff }

// Choose returns the encoding the compressor stores for a full-warp write of
// vals under mode m. Lane similarity is evaluated with the first lane as the
// base, mirroring the single-base hardware compressor of paper Figure 7.
func (m Mode) Choose(vals *WarpReg) Encoding {
	if m == ModeOff {
		return EncUncompressed
	}
	width := deltaWidth(vals)
	if width > 2 {
		return EncUncompressed
	}
	best := [3]Encoding{Enc40, Enc41, Enc42}[width]
	switch m {
	case ModeWarped:
		return best
	case ModeOnly40:
		if best == Enc40 {
			return Enc40
		}
	case ModeOnly41:
		if best == Enc40 || best == Enc41 {
			return Enc41
		}
	case ModeOnly42:
		return Enc42 // any width 0..2 fits in 2-byte deltas
	}
	return EncUncompressed
}

// ChooseBDI returns the encoding the paper's compressor (the bdi
// compression setting) stores for vals: ModeWarped.Choose.
func ChooseBDI(vals *WarpReg) Encoding { return ModeWarped.Choose(vals) }

// deltaWidth computes the narrowest per-lane delta width (in bytes) that can
// represent every lane of vals relative to lane 0. The three fixed BDI
// choices nest — anything <4,0>-compressible is <4,1>-compressible, etc. —
// so one pass suffices: 0, 1 or 2 bytes; 3 means no fixed choice fits.
func deltaWidth(vals *WarpReg) int {
	base := vals[0]
	width := 0
	for _, v := range vals[1:] {
		d := int32(v - base)
		switch {
		case d == 0:
		case d >= -128 && d < 128:
			if width < 1 {
				width = 1
			}
		case d >= -32768 && d < 32768:
			if width < 2 {
				width = 2
			}
		default:
			return 3
		}
	}
	return width
}
