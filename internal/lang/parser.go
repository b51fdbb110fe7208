package lang

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent parser for the Vienna Fortran subset.
type Parser struct {
	toks []Token
	pos  int
}

// Parse lexes and parses src into a Program.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	prog := &Program{}
	for !p.at(EOF) {
		if p.at(NEWLINE) {
			p.next()
			continue
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, s)
	}
	return prog, nil
}

func (p *Parser) cur() Token     { return p.toks[p.pos] }
func (p *Parser) at(k Kind) bool { return p.cur().Kind == k }
func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != EOF {
		p.pos++
	}
	return t
}

func (p *Parser) peekKind(ahead int) Kind {
	i := p.pos + ahead
	if i >= len(p.toks) {
		return EOF
	}
	return p.toks[i].Kind
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("%v: %s (at %q)", t.Pos, fmt.Sprintf(format, args...), t.String())
}

func (p *Parser) expect(k Kind) (Token, error) {
	if !p.at(k) {
		return Token{}, p.errf("expected %v", k)
	}
	return p.next(), nil
}

func (p *Parser) expectEOL() error {
	if p.at(EOF) {
		return nil
	}
	if _, err := p.expect(NEWLINE); err != nil {
		return err
	}
	return nil
}

// statement parses one statement (consuming its trailing NEWLINE).
func (p *Parser) statement() (Stmt, error) {
	switch p.cur().Kind {
	case KPARAMETER:
		return p.parameterStmt()
	case KPROCESSORS:
		return p.processorsStmt()
	case KREAL, KINTEGER:
		return p.declStmt()
	case KDISTRIBUTE:
		return p.distributeStmt()
	case KSELECT:
		return p.selectStmt()
	case KIF:
		return p.ifStmt()
	case KDO:
		return p.doStmt()
	case KFORALL:
		return p.forallStmt()
	case KCALL:
		return p.callStmt()
	case IDENT:
		return p.assignStmt()
	}
	return nil, p.errf("unexpected statement start")
}

func (p *Parser) parameterStmt() (Stmt, error) {
	s := &ParameterStmt{node: node{p.next().Pos}}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	for {
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return nil, err
		}
		val, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Defs = append(s.Defs, ParamDef{Name: name.Text, Value: val})
		if p.at(COMMA) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	return s, p.expectEOL()
}

// bound parses "lo:hi" or "extent" (lo nil).
func (p *Parser) bound() ([2]Expr, error) {
	var b [2]Expr
	e, err := p.expr()
	if err != nil {
		return b, err
	}
	if p.at(COLON) {
		p.next()
		hi, err := p.expr()
		if err != nil {
			return b, err
		}
		b[0], b[1] = e, hi
	} else {
		b[1] = e
	}
	return b, nil
}

func (p *Parser) boundList() ([][2]Expr, error) {
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	var out [][2]Expr
	for {
		b, err := p.bound()
		if err != nil {
			return nil, err
		}
		out = append(out, b)
		if p.at(COMMA) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) processorsStmt() (Stmt, error) {
	s := &ProcessorsStmt{node: node{p.next().Pos}}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	s.Name = name.Text
	s.Bounds, err = p.boundList()
	if err != nil {
		return nil, err
	}
	return s, p.expectEOL()
}

func (p *Parser) declStmt() (Stmt, error) {
	t := p.next()
	s := &DeclStmt{node: node{t.Pos}, ElemType: t.Text}
	// declared names
	for {
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		dn := DeclName{Name: name.Text}
		if p.at(LPAREN) {
			dims, err := p.boundList()
			if err != nil {
				return nil, err
			}
			dn.Dims = dims
		}
		s.Names = append(s.Names, dn)
		// another declared name only if "COMMA IDENT (LPAREN|COMMA|annotation-break)"
		if p.at(COMMA) && p.peekKind(1) == IDENT {
			p.next()
			continue
		}
		break
	}
	// annotations, separated by optional commas
	for {
		if p.at(COMMA) {
			p.next()
			continue
		}
		switch p.cur().Kind {
		case KDIST:
			p.next()
			de, err := p.distExpr()
			if err != nil {
				return nil, err
			}
			s.Dist = de
		case KDYNAMIC:
			p.next()
			s.Dynamic = true
		case KRANGE:
			p.next()
			if _, err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			for {
				if _, err := p.expect(LPAREN); err != nil {
					return nil, err
				}
				dims, err := p.distDims()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(RPAREN); err != nil {
					return nil, err
				}
				s.Range = append(s.Range, DistExpr{Dims: dims})
				if p.at(COMMA) {
					p.next()
					continue
				}
				break
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
		case KCONNECT:
			p.next()
			c := &ConnectAnn{}
			if p.at(LPAREN) && p.peekKind(1) == ASSIGN {
				p.next()
				p.next()
				name, err := p.expect(IDENT)
				if err != nil {
					return nil, err
				}
				c.Extract = name.Text
				if _, err := p.expect(RPAREN); err != nil {
					return nil, err
				}
			} else {
				al, err := p.alignSpec()
				if err != nil {
					return nil, err
				}
				c.Align = al
			}
			s.Connect = c
		case KALIGN:
			p.next()
			al, err := p.alignSpec()
			if err != nil {
				return nil, err
			}
			s.Align = al
		default:
			return s, p.expectEOL()
		}
	}
}

// distExpr parses "( dims )" optionally followed by "TO NAME" or a
// section of it, "TO NAME(subscripts)".
func (p *Parser) distExpr() (*DistExpr, error) {
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	dims, err := p.distDims()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	de := &DistExpr{Dims: dims}
	if p.at(KTO) {
		p.next()
		r, err := p.refExpr()
		if err != nil {
			return nil, err
		}
		de.Target, de.TargetIdx = r.Name, r.Indices
	}
	return de, nil
}

// distDims parses a comma-separated component list (without the outer
// parentheses).
func (p *Parser) distDims() ([]DistDim, error) {
	var out []DistDim
	for {
		d, err := p.distDim()
		if err != nil {
			return nil, err
		}
		out = append(out, d)
		if p.at(COMMA) {
			p.next()
			continue
		}
		return out, nil
	}
}

func (p *Parser) distDim() (DistDim, error) {
	switch p.cur().Kind {
	case KBLOCK:
		p.next()
		// BLOCK(*) appears in the paper's IF example as shorthand for
		// "(BLOCK, *)"; accept and normalize to BLOCK with ArgAny.
		if p.at(LPAREN) && p.peekKind(1) == STAR {
			p.next()
			p.next()
			if _, err := p.expect(RPAREN); err != nil {
				return DistDim{}, err
			}
			return DistDim{Kind: DBlock, ArgAny: true}, nil
		}
		return DistDim{Kind: DBlock}, nil
	case KCYCLIC:
		p.next()
		d := DistDim{Kind: DCyclic}
		if p.at(LPAREN) {
			p.next()
			if p.at(STAR) {
				p.next()
				d.ArgAny = true
			} else {
				arg, err := p.expr()
				if err != nil {
					return d, err
				}
				d.Arg = arg
			}
			if _, err := p.expect(RPAREN); err != nil {
				return d, err
			}
		}
		return d, nil
	case KSBLOCK, KBBLOCK:
		kind := DSBlock
		if p.cur().Kind == KBBLOCK {
			kind = DBBlock
		}
		p.next()
		d := DistDim{Kind: kind}
		if p.at(LPAREN) {
			p.next()
			if p.at(STAR) {
				p.next()
				d.ArgAny = true
			} else {
				for {
					arg, err := p.expr()
					if err != nil {
						return d, err
					}
					d.Args = append(d.Args, arg)
					if p.at(COMMA) {
						p.next()
						continue
					}
					break
				}
				d.Arg = d.Args[0]
			}
			if _, err := p.expect(RPAREN); err != nil {
				return d, err
			}
		}
		return d, nil
	case COLON:
		p.next()
		return DistDim{Kind: DElided}, nil
	case STAR:
		p.next()
		return DistDim{Kind: DAny}, nil
	case ASSIGN:
		p.next()
		name, err := p.expect(IDENT)
		if err != nil {
			return DistDim{}, err
		}
		return DistDim{Kind: DExtract, From: name.Text}, nil
	}
	return DistDim{}, p.errf("expected distribution component")
}

// alignSpec parses "A(I,J) WITH B(J,2*I+1,3)".
func (p *Parser) alignSpec() (*AlignSpec, error) {
	src, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	al := &AlignSpec{SrcName: src.Text}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	for {
		id, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		al.SrcIdx = append(al.SrcIdx, id.Text)
		if p.at(COMMA) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if _, err := p.expect(KWITH); err != nil {
		return nil, err
	}
	dst, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	al.DstName = dst.Text
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		al.DstIdx = append(al.DstIdx, e)
		if p.at(COMMA) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	return al, nil
}

func (p *Parser) distributeStmt() (Stmt, error) {
	s := &DistributeStmt{node: node{p.next().Pos}}
	for {
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		s.Names = append(s.Names, name.Text)
		if p.at(COMMA) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(DCOLON); err != nil {
		return nil, err
	}
	if p.at(LPAREN) {
		de, err := p.distExpr()
		if err != nil {
			return nil, err
		}
		s.Expr = de
	} else {
		al, err := p.alignSpec()
		if err != nil {
			return nil, err
		}
		s.Align = al
	}
	if p.at(KNOTRANSFER) {
		p.next()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		for {
			name, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			s.NoTransfer = append(s.NoTransfer, name.Text)
			if p.at(COMMA) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
	}
	return s, p.expectEOL()
}

func (p *Parser) selectStmt() (Stmt, error) {
	s := &SelectStmt{node: node{p.next().Pos}}
	if _, err := p.expect(KDCASE); err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	for {
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		s.Selectors = append(s.Selectors, name.Text)
		if p.at(COMMA) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	for {
		for p.at(NEWLINE) {
			p.next()
		}
		if p.at(KEND) {
			p.next()
			if _, err := p.expect(KSELECT); err != nil {
				return nil, err
			}
			return s, p.expectEOL()
		}
		if _, err := p.expect(KCASE); err != nil {
			return nil, err
		}
		arm := CaseArm{node: node{p.toks[p.pos-1].Pos}}
		if p.at(KDEFAULT) {
			p.next()
			arm.Default = true
		} else {
			for {
				q := Query{}
				if p.at(IDENT) && p.peekKind(1) == COLON {
					q.Tag = p.next().Text
					p.next()
				}
				if _, err := p.expect(LPAREN); err != nil {
					return nil, err
				}
				dims, err := p.distDims()
				if err != nil {
					return nil, err
				}
				// tolerate the paper's stray extra ')' in Example 4
				q.Pattern = dims
				if _, err := p.expect(RPAREN); err != nil {
					return nil, err
				}
				arm.Queries = append(arm.Queries, q)
				if p.at(COMMA) {
					p.next()
					continue
				}
				break
			}
		}
		if err := p.expectEOL(); err != nil {
			return nil, err
		}
		// body: statements until CASE or END SELECT
		for {
			for p.at(NEWLINE) {
				p.next()
			}
			if p.at(KCASE) || (p.at(KEND) && p.peekKind(1) == KSELECT) {
				break
			}
			if p.at(EOF) {
				return nil, p.errf("unterminated DCASE construct")
			}
			st, err := p.statement()
			if err != nil {
				return nil, err
			}
			arm.Body = append(arm.Body, st)
		}
		s.Arms = append(s.Arms, arm)
	}
}

func (p *Parser) ifStmt() (Stmt, error) {
	s := &IfStmt{node: node{p.next().Pos}}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	s.Cond = cond
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if _, err := p.expect(KTHEN); err != nil {
		return nil, err
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	inElse := false
	for {
		for p.at(NEWLINE) {
			p.next()
		}
		switch {
		case p.at(KENDIF):
			p.next()
			return s, p.expectEOL()
		case p.at(KEND) && p.peekKind(1) == KIF:
			p.next()
			p.next()
			return s, p.expectEOL()
		case p.at(KELSE):
			p.next()
			if err := p.expectEOL(); err != nil {
				return nil, err
			}
			inElse = true
		case p.at(EOF):
			return nil, p.errf("unterminated IF")
		default:
			st, err := p.statement()
			if err != nil {
				return nil, err
			}
			if inElse {
				s.Else = append(s.Else, st)
			} else {
				s.Then = append(s.Then, st)
			}
		}
	}
}

func (p *Parser) doStmt() (Stmt, error) {
	s := &DoStmt{node: node{p.next().Pos}}
	v, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	s.Var = v.Text
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	if s.From, err = p.expr(); err != nil {
		return nil, err
	}
	if _, err := p.expect(COMMA); err != nil {
		return nil, err
	}
	if s.To, err = p.expr(); err != nil {
		return nil, err
	}
	if p.at(COMMA) {
		p.next()
		if s.Step, err = p.expr(); err != nil {
			return nil, err
		}
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	for {
		for p.at(NEWLINE) {
			p.next()
		}
		switch {
		case p.at(KENDDO):
			p.next()
			return s, p.expectEOL()
		case p.at(KEND) && p.peekKind(1) == KDO:
			p.next()
			p.next()
			return s, p.expectEOL()
		case p.at(EOF):
			return nil, p.errf("unterminated DO")
		default:
			st, err := p.statement()
			if err != nil {
				return nil, err
			}
			s.Body = append(s.Body, st)
		}
	}
}

func (p *Parser) forallStmt() (Stmt, error) {
	s := &ForallStmt{node: node{p.next().Pos}}
	v, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	s.Var = v.Text
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	if s.From, err = p.expr(); err != nil {
		return nil, err
	}
	if _, err := p.expect(COMMA); err != nil {
		return nil, err
	}
	if s.To, err = p.expr(); err != nil {
		return nil, err
	}
	if p.at(COMMA) {
		p.next()
		if s.Step, err = p.expr(); err != nil {
			return nil, err
		}
	}
	if err := p.expectEOL(); err != nil {
		return nil, err
	}
	for {
		for p.at(NEWLINE) {
			p.next()
		}
		switch {
		case p.at(KENDFORALL):
			p.next()
			return s, p.expectEOL()
		case p.at(KEND) && p.peekKind(1) == KFORALL:
			p.next()
			p.next()
			return s, p.expectEOL()
		case p.at(EOF):
			return nil, p.errf("unterminated FORALL")
		default:
			st, err := p.statement()
			if err != nil {
				return nil, err
			}
			s.Body = append(s.Body, st)
		}
	}
}

func (p *Parser) callStmt() (Stmt, error) {
	s := &CallStmt{node: node{p.next().Pos}}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	s.Name = name.Text
	if p.at(LPAREN) {
		p.next()
		if !p.at(RPAREN) {
			for {
				a, err := p.indexExpr()
				if err != nil {
					return nil, err
				}
				s.Args = append(s.Args, a)
				if p.at(COMMA) {
					p.next()
					continue
				}
				break
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
	}
	return s, p.expectEOL()
}

func (p *Parser) assignStmt() (Stmt, error) {
	ref, err := p.refExpr()
	if err != nil {
		return nil, err
	}
	s := &AssignStmt{node: node{ref.Pos()}, LHS: ref}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	if s.RHS, err = p.expr(); err != nil {
		return nil, err
	}
	return s, p.expectEOL()
}

// --- expressions ---

// expr parses with precedence: OR < AND < NOT < comparison < additive <
// multiplicative < unary.
func (p *Parser) expr() (Expr, error) { return p.orExpr() }

func (p *Parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.at(OR) {
		pos := p.next().Pos
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{node: node{pos}, Op: OR, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.at(AND) {
		pos := p.next().Pos
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{node: node{pos}, Op: AND, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) notExpr() (Expr, error) {
	if p.at(NOT) {
		pos := p.next().Pos
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnExpr{node: node{pos}, Op: NOT, X: x}, nil
	}
	return p.cmpExpr()
}

func (p *Parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	switch p.cur().Kind {
	case EQ, NE, LT, LE, GT, GE:
		op := p.next()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BinExpr{node: node{op.Pos}, Op: op.Kind, L: l, R: r}, nil
	}
	return l, nil
}

func (p *Parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.at(PLUS) || p.at(MINUS) {
		op := p.next()
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{node: node{op.Pos}, Op: op.Kind, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for p.at(STAR) || p.at(SLASH) {
		op := p.next()
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{node: node{op.Pos}, Op: op.Kind, L: l, R: r}
	}
	return l, nil
}

func (p *Parser) unaryExpr() (Expr, error) {
	if p.at(MINUS) {
		pos := p.next().Pos
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnExpr{node: node{pos}, Op: MINUS, X: x}, nil
	}
	return p.primary()
}

func (p *Parser) primary() (Expr, error) {
	switch p.cur().Kind {
	case INT:
		t := p.next()
		v, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, p.errf("bad integer %s", t.Text)
		}
		return &IntLit{node: node{t.Pos}, Value: v}, nil
	case IDENT:
		return p.refExpr()
	case KIDT:
		t := p.next()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(COMMA); err != nil {
			return nil, err
		}
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		dims, err := p.distDims()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return &IDTExpr{node: node{t.Pos}, Array: name.Text, Pattern: dims}, nil
	case LPAREN:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, p.errf("expected expression")
}

// refExpr parses NAME or NAME(index, ...) where an index may be a section
// subscript (":" / "lo:hi[:step]").
func (p *Parser) refExpr() (*Ref, error) {
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	r := &Ref{node: node{name.Pos}, Name: name.Text}
	if !p.at(LPAREN) {
		return r, nil
	}
	p.next()
	for {
		ix, err := p.indexExpr()
		if err != nil {
			return nil, err
		}
		r.Indices = append(r.Indices, ix)
		if p.at(COMMA) {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	return r, nil
}

// indexExpr parses one subscript: an expression, possibly extended into a
// section triplet with ':'.
func (p *Parser) indexExpr() (Expr, error) {
	if p.at(COLON) {
		// ":" or ":hi[:step]"
		pos := p.next().Pos
		ri := &RangeIdx{node: node{pos}}
		if !p.at(COMMA) && !p.at(RPAREN) && !p.at(COLON) {
			hi, err := p.expr()
			if err != nil {
				return nil, err
			}
			ri.Hi = hi
		}
		if p.at(COLON) {
			p.next()
			st, err := p.expr()
			if err != nil {
				return nil, err
			}
			ri.Step = st
		}
		return ri, nil
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if !p.at(COLON) {
		return e, nil
	}
	pos := p.next().Pos
	ri := &RangeIdx{node: node{pos}, Lo: e}
	if !p.at(COMMA) && !p.at(RPAREN) && !p.at(COLON) {
		hi, err := p.expr()
		if err != nil {
			return nil, err
		}
		ri.Hi = hi
	}
	if p.at(COLON) {
		p.next()
		st, err := p.expr()
		if err != nil {
			return nil, err
		}
		ri.Step = st
	}
	return ri, nil
}
