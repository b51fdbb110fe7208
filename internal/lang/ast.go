package lang

import (
	"fmt"
	"strings"
)

// Program is a parsed Vienna Fortran subset unit (one procedure scope).
type Program struct {
	Stmts []Stmt
}

// Stmt is a statement node.
type Stmt interface {
	Pos() Pos
	stmtNode()
}

type node struct{ P Pos }

// Pos returns the node's source position.
func (n node) Pos() Pos { return n.P }

// ParamDef is one NAME = value pair of a PARAMETER statement.
type ParamDef struct {
	Name  string
	Value Expr
}

// ParameterStmt is PARAMETER (N = 100, M = 4).
type ParameterStmt struct {
	node
	Defs []ParamDef
}

// ProcessorsStmt is PROCESSORS R(1:M, 1:M).
type ProcessorsStmt struct {
	node
	Name   string
	Bounds [][2]Expr // lo may be nil (defaults to 1)
}

// DeclName is one declared array: NAME(dims).  Scalars have no dims.
type DeclName struct {
	Name string
	Dims [][2]Expr // lo may be nil (defaults to 1)
}

// DistDimKind classifies a component of a distribution expression or
// query pattern.
type DistDimKind int

// Distribution expression component kinds.
const (
	DBlock DistDimKind = iota
	DCyclic
	DSBlock
	DBBlock
	DElided  // ":"
	DAny     // "*" (patterns and RANGE only)
	DExtract // "=B" (DISTRIBUTE extraction, paper Example 3)
)

func (k DistDimKind) String() string {
	switch k {
	case DBlock:
		return "BLOCK"
	case DCyclic:
		return "CYCLIC"
	case DSBlock:
		return "S_BLOCK"
	case DBBlock:
		return "B_BLOCK"
	case DElided:
		return ":"
	case DAny:
		return "*"
	case DExtract:
		return "="
	}
	return "?"
}

// DistDim is one component of a distribution expression / pattern:
// BLOCK, CYCLIC, CYCLIC(k), CYCLIC(*), S_BLOCK(a), B_BLOCK(a), ":", "*",
// or "=NAME".
type DistDim struct {
	Kind DistDimKind
	// Arg is CYCLIC's block length or S_BLOCK/B_BLOCK's bounds array
	// reference; nil when absent.  ArgAny marks CYCLIC(*).
	Arg    Expr
	ArgAny bool
	// Args holds literal bounds/sizes lists: B_BLOCK(3,5,9,12).  When a
	// single argument was given, Args has one element equal to Arg.
	Args []Expr
	// From names the array of an extraction component.
	From string
}

func (d DistDim) String() string {
	switch d.Kind {
	case DCyclic:
		if d.ArgAny {
			return "CYCLIC(*)"
		}
		if d.Arg != nil {
			return fmt.Sprintf("CYCLIC(%v)", d.Arg)
		}
		return "CYCLIC"
	case DSBlock, DBBlock:
		if d.Arg != nil {
			return fmt.Sprintf("%v(%v)", d.Kind, d.Arg)
		}
		return d.Kind.String()
	case DExtract:
		return "=" + d.From
	}
	return d.Kind.String()
}

// DistExpr is a parenthesized list of components plus an optional target.
type DistExpr struct {
	Dims   []DistDim
	Target string // "" = default; the TO R clause
	// TargetIdx are the subscripts of a TO R(...) section (§2.2); nil
	// targets the whole processor array.
	TargetIdx []Expr
}

func (d DistExpr) String() string {
	parts := make([]string, len(d.Dims))
	for i, c := range d.Dims {
		parts[i] = c.String()
	}
	s := "(" + strings.Join(parts, ",") + ")"
	if d.Target != "" {
		s += " TO " + (&Ref{Name: d.Target, Indices: d.TargetIdx}).String()
	}
	return s
}

// AlignSpec is "A(I,J) WITH B(J,I+1,3)": the source index names and the
// target index expressions over them.
type AlignSpec struct {
	SrcName string
	SrcIdx  []string
	DstName string
	DstIdx  []Expr
}

func (a AlignSpec) String() string {
	return fmt.Sprintf("%s(%s) WITH %s(...)", a.SrcName, strings.Join(a.SrcIdx, ","), a.DstName)
}

// ConnectAnn is the CONNECT annotation of a secondary declaration:
// either extraction "(=B)" or an alignment spec.
type ConnectAnn struct {
	Extract string // primary name for "(=B)"; "" when Align is used
	Align   *AlignSpec
}

// DeclStmt is an array declaration with annotations (paper §2.2–2.3):
//
//	REAL C(10,10,10) DIST(BLOCK,BLOCK,:) TO R
//	REAL D(...) ALIGN D(I,J,K) WITH C(J,I,K)
//	REAL B3(N,N), B4(N,N) DYNAMIC, RANGE(...), DIST(BLOCK, CYCLIC)
//	REAL A1(N,N) DYNAMIC, CONNECT (=B4)
type DeclStmt struct {
	node
	ElemType string // REAL or INTEGER
	Names    []DeclName
	Dist     *DistExpr  // DIST(...) [TO ...] — static or dynamic initial
	Align    *AlignSpec // static ALIGN ... WITH ...
	Dynamic  bool
	Range    []DistExpr // RANGE((...),(...))
	Connect  *ConnectAnn
}

func (*DeclStmt) stmtNode()       {}
func (*ParameterStmt) stmtNode()  {}
func (*ProcessorsStmt) stmtNode() {}

// DistributeStmt is DISTRIBUTE B1, B2 :: da [NOTRANSFER (C1, ...)], where
// da is a distribution expression (possibly with extraction components)
// or an alignment specification.
type DistributeStmt struct {
	node
	Names      []string
	Expr       *DistExpr  // nil when Align is used
	Align      *AlignSpec // "ALIGN ... WITH ..." form
	NoTransfer []string
}

func (*DistributeStmt) stmtNode() {}

// Query is one query of a DCASE condition: optionally name-tagged.
type Query struct {
	Tag     string
	Pattern []DistDim
}

// CaseArm is one condition-action pair of a DCASE construct.
type CaseArm struct {
	node
	Default bool
	Queries []Query
	Body    []Stmt
}

// SelectStmt is SELECT DCASE (A1,...,Ar) ... END SELECT.
type SelectStmt struct {
	node
	Selectors []string
	Arms      []CaseArm
}

func (*SelectStmt) stmtNode() {}

// IfStmt is IF (cond) THEN ... [ELSE ...] ENDIF.
type IfStmt struct {
	node
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (*IfStmt) stmtNode() {}

// DoStmt is DO V = lo, hi [, step] ... ENDDO.
type DoStmt struct {
	node
	Var      string
	From, To Expr
	Step     Expr // nil = 1
	Body     []Stmt
}

func (*DoStmt) stmtNode() {}

// ForallStmt is the explicitly parallel loop FORALL V = lo, hi [, step]
// ... ENDFORALL: iterations are independent by assertion, so the engine
// may partition them by the owner-computes rule.
type ForallStmt struct {
	node
	Var      string
	From, To Expr
	Step     Expr // nil = 1
	Body     []Stmt
}

func (*ForallStmt) stmtNode() {}

// CallStmt is CALL NAME(args).
type CallStmt struct {
	node
	Name string
	Args []Expr
}

func (*CallStmt) stmtNode() {}

// AssignStmt is VAR = expr or ARR(idx...) = expr.
type AssignStmt struct {
	node
	LHS *Ref
	RHS Expr
}

func (*AssignStmt) stmtNode() {}

// Expr is an expression node.
type Expr interface {
	Pos() Pos
	exprNode()
	String() string
}

// IntLit is an integer literal.
type IntLit struct {
	node
	Value int
}

func (*IntLit) exprNode()        {}
func (e *IntLit) String() string { return fmt.Sprint(e.Value) }

// Ref is a name, possibly subscripted: X, A(I,J), V(:,J), F(1:N:2, J).
// Unsubscripted scalars have nil Indices.  A Ref in call position may
// denote an intrinsic or routine reference; sema disambiguates.
type Ref struct {
	node
	Name    string
	Indices []Expr // each is an expression or *RangeIdx
}

func (*Ref) exprNode() {}
func (e *Ref) String() string {
	if e.Indices == nil {
		return e.Name
	}
	parts := make([]string, len(e.Indices))
	for i, ix := range e.Indices {
		parts[i] = ix.String()
	}
	return e.Name + "(" + strings.Join(parts, ",") + ")"
}

// RangeIdx is a section subscript lo:hi:step with any part omitted
// (V(:,J) has Lo=Hi=Step=nil in dimension 1).
type RangeIdx struct {
	node
	Lo, Hi, Step Expr
}

func (*RangeIdx) exprNode() {}
func (e *RangeIdx) String() string {
	s := ":"
	if e.Lo != nil {
		s = e.Lo.String() + ":"
	}
	if e.Hi != nil {
		s += e.Hi.String()
	}
	if e.Step != nil {
		s += ":" + e.Step.String()
	}
	return s
}

// BinExpr is a binary operation (arithmetic, comparison, logical).
type BinExpr struct {
	node
	Op   Kind
	L, R Expr
}

func (*BinExpr) exprNode() {}
func (e *BinExpr) String() string {
	return fmt.Sprintf("(%v %v %v)", e.L, e.Op, e.R)
}

// UnExpr is unary minus or .NOT.
type UnExpr struct {
	node
	Op Kind
	X  Expr
}

func (*UnExpr) exprNode() {}
func (e *UnExpr) String() string {
	return fmt.Sprintf("(%v %v)", e.Op, e.X)
}

// IDTExpr is the intrinsic distribution test IDT(B, (pattern...)).
type IDTExpr struct {
	node
	Array   string
	Pattern []DistDim
}

func (*IDTExpr) exprNode() {}
func (e *IDTExpr) String() string {
	parts := make([]string, len(e.Pattern))
	for i, d := range e.Pattern {
		parts[i] = d.String()
	}
	return fmt.Sprintf("IDT(%s,(%s))", e.Array, strings.Join(parts, ","))
}
