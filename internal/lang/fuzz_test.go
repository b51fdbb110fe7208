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
// the right-hand side of an assignment; so does every distribution
// expression, TO clause and section included, as a DISTRIBUTE's.  The
// seeds are the paper's fixture programs, a DISTRIBUTE onto a processor
// section and the sources under examples/.
//
//	go test -run '^$' -fuzz FuzzParse -parallel 2 ./internal/lang
func FuzzParse(f *testing.F) {
	section := "PROCESSORS R(1:4)\nREAL A(8) DYNAMIC\nDISTRIBUTE A :: (CYCLIC(2)) TO R(2:4:2)\n"
	for _, src := range []string{FixtureFig1, FixtureFig2, FixtureExample2, FixtureExample4, FixtureIDT, section} {
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
		eachDistExpr(reflect.ValueOf(prog), func(de *DistExpr) {
			s := de.String()
			again, err := Parse("DISTRIBUTE X :: " + s + "\n")
			if err != nil {
				t.Fatalf("distribution %q does not reparse: %v", s, err)
			}
			got := ""
			if len(again.Stmts) == 1 {
				if ds, ok := again.Stmts[0].(*DistributeStmt); ok && ds.Expr != nil {
					got = ds.Expr.String()
				}
			}
			if got != s {
				t.Fatalf("distribution %q reparses to %q", s, got)
			}
		})
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

// eachExpr calls f on every expression reachable from v, parents first.
func eachExpr(v reflect.Value, f func(Expr)) { eachNode(v, f) }

// eachDistExpr calls f on every distribution expression reachable from v.
func eachDistExpr(v reflect.Value, f func(*DistExpr)) { eachNode(v, f) }

// eachNode calls f on every T reachable from v — the AST is a tree of
// pointers, structs, slices and interfaces — parents first.
func eachNode[T any](v reflect.Value, f func(T)) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			eachNode(v.Elem(), f)
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		if n, ok := v.Interface().(T); ok {
			f(n)
		}
		eachNode(v.Elem(), f)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachNode(v.Field(i), f)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			eachNode(v.Index(i), f)
		}
	}
}
