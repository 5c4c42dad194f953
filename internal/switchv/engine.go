package switchv

import (
	"fmt"
	"sync/atomic"

	"switchv/internal/bmv2"
	"switchv/internal/p4/compile"
	"switchv/internal/p4/ir"
	"switchv/internal/p4/pdpi"
)

// EngineKind names a reference-simulator engine implementation. The
// engines are differentially tested to be outcome-identical; the kind
// only changes how fast the model executes.
type EngineKind string

const (
	// EngineCompiled lowers the IR to closure trees at load time
	// (internal/p4/compile). It is the default: same outcomes as the
	// interpreter at a fraction of the per-packet cost.
	EngineCompiled EngineKind = "compiled"
	// EngineInterp walks the IR directly (internal/bmv2). It is the
	// escape hatch: slower, but with no compilation step between the
	// model and execution.
	EngineInterp EngineKind = "interp"
)

// ParseEngine validates an -engine flag value. The empty string selects
// the default (compiled).
func ParseEngine(s string) (EngineKind, error) {
	switch EngineKind(s) {
	case "", EngineCompiled:
		return EngineCompiled, nil
	case EngineInterp:
		return EngineInterp, nil
	default:
		return "", fmt.Errorf("invalid engine %q (want %s or %s)", s, EngineInterp, EngineCompiled)
	}
}

// ParsePrecheck validates a -precheck flag value. The empty string
// selects the default (on).
func ParsePrecheck(s string) (PrecheckMode, error) {
	switch s {
	case "on", "":
		return PrecheckOn, nil
	case "warn":
		return PrecheckWarn, nil
	case "off":
		return PrecheckOff, nil
	}
	return 0, fmt.Errorf("invalid -precheck %q (want on, warn, or off)", s)
}

// engineConstructions counts NewEngine calls process-wide. The
// data-plane compare loop is asserted (by regression test) to construct
// one engine per worker, not one per packet.
var engineConstructions atomic.Int64

// EngineConstructions returns the process-wide engine construction
// count. Test hook.
func EngineConstructions() int64 { return engineConstructions.Load() }

// NewEngine builds a reference simulator of the given kind over the
// program and store. Engines are single-goroutine; concurrent workers
// build one each and may share the store.
func NewEngine(kind EngineKind, prog *ir.Program, store *pdpi.Store) (bmv2.Simulator, error) {
	engineConstructions.Add(1)
	switch kind {
	case EngineInterp:
		return bmv2.New(prog, store)
	case EngineCompiled, "":
		return compile.New(prog, store)
	default:
		return nil, fmt.Errorf("switchv: unknown engine %q", kind)
	}
}
