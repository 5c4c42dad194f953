// SMT encoding of entry restrictions, used by the static preflight
// analyzer (internal/p4/check) to detect @entry_restriction constraints
// that no entry can ever satisfy.
//
// The encoding is deliberately loose: every accessor of every key
// becomes an independent free variable (a value, a mask, a prefix
// length bounded by the key width, a presence bit), with none of the
// couplings a real entry has (an exact key's mask is all-ones, an LPM
// mask is PrefixMask(prefix_length), an absent optional reads zero).
// Every real entry therefore corresponds to some model of the
// encoding, so UNSAT here soundly implies that no entry satisfies the
// restriction. SAT is not a completeness claim — a restriction could
// be satisfiable only in the loose space — but for the preflight's
// purpose (never reject a usable table) that is the right direction.
package constraints

import (
	"fmt"

	"switchv/internal/p4/value"
	"switchv/internal/sat"
	"switchv/internal/smt"
)

// Satisfiable reports whether any assignment of the constraint's key
// attributes satisfies it, along with the number of solver checks
// spent. A false result is a proof: under the loose per-attribute
// encoding (a superset of real entries) the constraint admits no
// model, so no entry can ever be installed in the table.
func (c *Constraint) Satisfiable() (bool, int, error) {
	b := smt.NewBuilder()
	s := smt.NewSolver(b)
	e := &encoder{c: c, b: b, s: s, vars: map[string]*smt.Term{}}
	root, err := e.encodeBool(c.root)
	if err != nil {
		return true, 0, err
	}
	switch s.CheckAssuming(root) {
	case sat.Sat:
		return true, 1, nil
	case sat.Unsat:
		return false, 1, nil
	default:
		return true, 1, fmt.Errorf("constraints: solver returned unknown for %q", c.Source)
	}
}

type encoder struct {
	c    *Constraint
	b    *smt.Builder
	s    *smt.Solver
	vars map[string]*smt.Term
}

// attrVar returns the free variable of one (key, accessor) pair,
// creating it on first use. Prefix lengths carry their one real
// coupling — 0 <= plen <= key width — because restrictions routinely
// compare against the width and real entries always satisfy it.
func (e *encoder) attrVar(a attr) *smt.Term {
	name := a.field + "!" + a.key.Name
	if v, ok := e.vars[name]; ok {
		return v
	}
	b := e.b
	var v *smt.Term
	switch a.field {
	case "is_set":
		v = b.BV(name, 1)
	case "prefix_length":
		v = b.BV(name, 16)
		e.s.Assert(b.Ule(v, b.ConstUint(uint64(a.key.Field.Width), 16)))
	default: // value, mask
		v = b.BV(name, a.key.Field.Width)
	}
	e.vars[name] = v
	return v
}

// encodeNum lowers a numeric node to a term plus its natural width
// (0 for width-agnostic literals), mirroring Constraint.evalNum.
func (e *encoder) encodeNum(n node) (*smt.Term, int, error) {
	switch x := n.(type) {
	case numLit:
		return e.b.Const(value.New(x.v, 64)), 0, nil
	case attr:
		v := e.attrVar(x)
		return v, v.Width(), nil
	default:
		return nil, 0, fmt.Errorf("constraints: %q: non-numeric node %T in numeric position", e.c.Source, n)
	}
}

// encodeBool lowers a boolean node. Comparison operands width-align
// exactly as Eval does: literals adopt the other side's width (64 when
// both are literals), wider values truncate via Resize — the masking
// value.New128 applies at evaluation time.
func (e *encoder) encodeBool(n node) (*smt.Term, error) {
	b := e.b
	switch x := n.(type) {
	case boolLit:
		return b.Bool(bool(x)), nil
	case *logic:
		lhs, err := e.encodeBool(x.x)
		if err != nil {
			return nil, err
		}
		if x.op == "!" {
			return b.Not(lhs), nil
		}
		rhs, err := e.encodeBool(x.y)
		if err != nil {
			return nil, err
		}
		switch x.op {
		case "&&":
			return b.And(lhs, rhs), nil
		case "||":
			return b.Or(lhs, rhs), nil
		case "->":
			return b.Implies(lhs, rhs), nil
		}
		return nil, fmt.Errorf("constraints: %q: unknown logic op %q", e.c.Source, x.op)
	case *cmp:
		lhs, lw, err := e.encodeNum(x.x)
		if err != nil {
			return nil, err
		}
		rhs, rw, err := e.encodeNum(x.y)
		if err != nil {
			return nil, err
		}
		w := lw
		if w == 0 {
			w = rw
		}
		if w == 0 {
			w = 64
		}
		lhs, rhs = b.Resize(lhs, w), b.Resize(rhs, w)
		switch x.op {
		case "==":
			return b.Eq(lhs, rhs), nil
		case "!=":
			return b.Ne(lhs, rhs), nil
		case "<":
			return b.Ult(lhs, rhs), nil
		case "<=":
			return b.Ule(lhs, rhs), nil
		case ">":
			return b.Ult(rhs, lhs), nil
		case ">=":
			return b.Ule(rhs, lhs), nil
		}
		return nil, fmt.Errorf("constraints: %q: unknown comparison %q", e.c.Source, x.op)
	default:
		return nil, fmt.Errorf("constraints: %q: non-boolean node %T in boolean position", e.c.Source, n)
	}
}
