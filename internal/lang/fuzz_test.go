package lang

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParse holds the parser to two properties on any input.  Parse
// returns either an error or a program, never a panic (and the fuzzer
// notices one that does not return).  And every expression in a parsed
// program prints (String) to source that reparses to an expression
// printing the same: a subscript triplet as a subscript, anything else as
// the right-hand side of an assignment.  The seeds are the paper's
// fixture programs and the sources under examples/.
//
//	go test -run '^$' -fuzz FuzzParse -parallel 2 ./internal/lang
func FuzzParse(f *testing.F) {
	for _, src := range []string{FixtureFig1, FixtureFig2, FixtureExample2, FixtureExample4, FixtureIDT} {
		f.Add(src)
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.go"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example sources to seed from (%v)", err)
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		if prog == nil {
			t.Fatal("Parse returned neither a program nor an error")
		}
		eachExpr(reflect.ValueOf(prog), func(e Expr) {
			s := e.String()
			again, err := reparseExpr(e, s)
			if err != nil {
				t.Fatalf("%T %q does not reparse: %v", e, s, err)
			}
			if got := again.String(); got != s {
				t.Fatalf("%T %q reparses to %q", e, s, got)
			}
		})
	})
}

// reparseExpr parses s, the printed form of e, back into an expression
// in a position where e's kind is legal.
func reparseExpr(e Expr, s string) (Expr, error) {
	_, sub := e.(*RangeIdx)
	src := "X = " + s + "\n"
	if sub {
		src = "X = Z(" + s + ")\n"
	}
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	rhs := prog.Stmts[0].(*AssignStmt).RHS
	if sub {
		return rhs.(*Ref).Indices[0], nil
	}
	return rhs, nil
}

var exprType = reflect.TypeFor[Expr]()

// eachExpr calls f on every expression reachable from v — the AST is a
// tree of pointers, structs, slices and interfaces — parents first.
func eachExpr(v reflect.Value, f func(Expr)) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			eachExpr(v.Elem(), f)
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if v.Type().Implements(exprType) {
			f(v.Interface().(Expr))
		}
		eachExpr(v.Elem(), f)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachExpr(v.Field(i), f)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachExpr(v.Index(i), f)
		}
	}
}
