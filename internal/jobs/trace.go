package jobs

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"repro/internal/exectrace"
	"repro/internal/kernels"
)

// Mode selects how a submitted job drives the simulator: full execution
// (the default), execute-plus-trace-capture, or timing replay of a
// previously captured trace. The zero value means execute; anything else
// is rejected at submission with *UnknownModeError — unknown modes never
// silently degrade to execution.
type Mode string

const (
	ModeExecute Mode = "execute"
	ModeRecord  Mode = "record"
	ModeReplay  Mode = "replay"
)

// parseMode maps the wire-level mode string onto a Mode, treating the
// empty string as execute for backward compatibility with pre-trace
// clients.
func parseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModeExecute:
		return ModeExecute, nil
	case ModeRecord:
		return ModeRecord, nil
	case ModeReplay:
		return ModeReplay, nil
	}
	return "", &UnknownModeError{Mode: s}
}

// UnknownModeError rejects a submission naming a mode this server does not
// implement. The server maps it to HTTP 400.
type UnknownModeError struct{ Mode string }

func (e *UnknownModeError) Error() string {
	return fmt.Sprintf("jobs: unknown mode %q (have execute, record, replay)", e.Mode)
}

// UnknownTraceError rejects a replay submission referencing a trace the
// store does not hold — never recorded, or already evicted by capacity
// pressure. Resolution is strict and happens at submission, so a client
// learns immediately (HTTP 400) rather than after queueing.
type UnknownTraceError struct{ Ref string }

func (e *UnknownTraceError) Error() string {
	return fmt.Sprintf("jobs: unknown trace %q (recorded refs expire oldest-first; re-record)", e.Ref)
}

// storedTrace is one retained recording: the launch trace, in the
// resident form, plus the benchmark it was recorded from, checked at
// replay submission so a trace can never be replayed under the wrong
// benchmark's label.
type storedTrace struct {
	benchmark string
	launch    *exectrace.Launch
}

func (st storedTrace) memBytes() int64 { return st.launch.MemBytes() }

// traceCodec persists a recording as a single-launch warped.trace/v1
// container, so a future process can replay its ref. A blob that decodes
// to anything but exactly one valid launch is rejected (and so
// quarantined); a valid one is packed into the resident form as it loads.
func traceCodec(scale kernels.Scale) codec[storedTrace] {
	return codec[storedTrace]{
		encode: func(st storedTrace) ([]byte, error) {
			var buf bytes.Buffer
			err := exectrace.Write(&buf, &exectrace.Trace{
				Meta:     exectrace.Meta{Benchmark: st.benchmark, Scale: scale.String()},
				Launches: []*exectrace.Launch{st.launch},
			})
			return buf.Bytes(), err
		},
		decode: func(data []byte) (storedTrace, error) {
			tr, err := exectrace.Read(bytes.NewReader(data))
			if err != nil {
				return storedTrace{}, err
			}
			if len(tr.Launches) != 1 {
				return storedTrace{}, fmt.Errorf("trace blob holds %d launches, want 1", len(tr.Launches))
			}
			lt, err := exectrace.Pack(tr.Launches[0])
			if err != nil {
				return storedTrace{}, err
			}
			return storedTrace{benchmark: tr.Meta.Benchmark, launch: lt}, nil
		},
	}
}

// refMint mints trace refs of the form "trace-<nonce>-000001": a
// per-process random nonce plus a monotonic counter. The nonce is what
// makes refs collision-free across processes — many workers may write
// through to one shared disk store directory with no coordination, and two
// of them minting the same ref would silently overwrite each other's
// recordings (and later replay the wrong one). Not safe for concurrent
// use; the Manager mints under its mutex.
type refMint struct {
	nonce  string
	minted uint64 // Stats.TracesRecorded
}

// next mints the ref for a freshly recorded trace.
func (r *refMint) next() string {
	r.minted++
	return fmt.Sprintf("trace-%s-%06d", r.nonce, r.minted)
}

// refNonce draws the per-process random component of minted trace refs.
// crypto/rand failing is about as plausible as the 64-bit collision the
// pid+time fallback would reintroduce, but never mint predictable refs
// silently.
func refNonce() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%x-%x", os.Getpid(), time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}
