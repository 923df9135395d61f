// Package lang is the front end of the prefetching compiler: a small
// Fortran-flavoured loop language (counted loops, multi-dimensional
// arrays of double/long, scalars, conditionals, math intrinsics) with a
// lexer and a recursive-descent parser that types source text and lowers
// it, as it reads it, to the loop-nest IR the compiler pass operates on.
//
// Grammar sketch:
//
//	program  = "program" ident decl* stmt*
//	decl     = "param" ident "=" expr ["unknown"]
//	         | "array" ("double"|"long") ident dims ("," ident dims)*
//	         | "scalar" ("double"|"long") ident ("," ident)*
//	         | "seed" intlit
//	stmt     = "for" ident "=" expr ".." expr ["step" intlit] block
//	         | "if" expr block ["else" block]
//	         | ident "=" expr                  (scalar assign)
//	         | ident dims "=" expr             (array store)
//	block    = "{" stmt* "}"
//
// Expressions use C syntax and precedence: || && == != < <= > >= + -
// * / % << >> unary- ! calls and subscripts. Intrinsics: sqrt, fabs,
// log, exp, sin, cos, pow, randlc(), float(), min, max, fmin, fmax.
package lang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tInt
	tFloat
	tPunct // operators and punctuation, in text
)

type token struct {
	kind tokKind
	text string
	ival int64
	fval float64
	line int
	col  int
}

func (t token) String() string {
	if t.kind == tEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// Error is a front-end diagnostic with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string { return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg) }

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

var punct2 = []string{"<<", ">>", "<=", ">=", "==", "!=", "&&", "||", ".."}

func lex(src string) ([]token, error) {
	lx := &lexer{src: src, line: 1, col: 1}
	// Room for a token every two bytes of source (the example and
	// benchmark kernels take 3 to 7), so the slice is allocated once
	// instead of grown by doubling.
	toks := make([]token, 0, len(src)/2+1)
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tEOF {
			return toks, nil
		}
	}
}

// errorf reports an error at the lexer's position; a literal's error is
// at the literal's start instead (errorAt).
func (l *lexer) errorf(format string, args ...interface{}) error {
	return errorAt(l.line, l.col, format, args...)
}

func errorAt(line, col int, format string, args ...interface{}) error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.advance()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.peekByte() != '\n' {
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.advance()
			l.advance()
			for l.pos+1 < len(l.src) && !(l.peekByte() == '*' && l.src[l.pos+1] == '/') {
				l.advance()
			}
			if l.pos+1 >= len(l.src) {
				return token{}, l.errorf("unterminated block comment")
			}
			l.advance()
			l.advance()
		default:
			goto content
		}
	}
content:
	if l.pos >= len(l.src) {
		return token{kind: tEOF, line: l.line, col: l.col}, nil
	}
	line, col := l.line, l.col
	c := l.peekByte()

	if unicode.IsLetter(rune(c)) || c == '_' {
		start := l.pos
		for l.pos < len(l.src) {
			c := l.peekByte()
			if unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_' {
				l.advance()
			} else {
				break
			}
		}
		return token{kind: tIdent, text: l.src[start:l.pos], line: line, col: col}, nil
	}

	if unicode.IsDigit(rune(c)) {
		start := l.pos
		isFloat := false
		for l.pos < len(l.src) {
			c := l.peekByte()
			switch {
			case unicode.IsDigit(rune(c)):
				l.advance()
			case c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '.':
				// ".." range operator, not a decimal point
				goto done
			case c == '.':
				isFloat = true
				l.advance()
			case c == 'e' || c == 'E':
				isFloat = true
				l.advance()
				if b := l.peekByte(); b == '+' || b == '-' {
					l.advance()
				}
			default:
				goto done
			}
		}
	done:
		text := l.src[start:l.pos]
		if isFloat {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return token{}, errorAt(line, col, "bad float literal %q", text)
			}
			return token{kind: tFloat, text: text, fval: f, line: line, col: col}, nil
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return token{}, errorAt(line, col, "bad integer literal %q", text)
		}
		return token{kind: tInt, text: text, ival: v, line: line, col: col}, nil
	}

	for _, p := range punct2 {
		if strings.HasPrefix(l.src[l.pos:], p) {
			l.advance()
			l.advance()
			return token{kind: tPunct, text: p, line: line, col: col}, nil
		}
	}
	switch c {
	case '+', '-', '*', '/', '%', '(', ')', '[', ']', '{', '}', '=', '<', '>', ',', '!':
		l.advance()
		return token{kind: tPunct, text: l.src[l.pos-1 : l.pos], line: line, col: col}, nil
	}
	return token{}, l.errorf("unexpected character %q", string(c))
}
