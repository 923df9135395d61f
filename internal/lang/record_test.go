package lang

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/ir"
)

// sourceGlobs are the checked-in programs: the example kernels, the
// benchmark corpus and the NAS proxies' sources.
var sourceGlobs = []string{"../../examples/kernels/*.loop", "../../benchmark/corpus/*.loop", "testdata/nas/*.loop"}

// reachable is every error text the front end can report, as a pattern
// over the message: TestParseRecord fails unless each matches one cell.
var reachable = []string{
	// lexer
	`^unterminated block comment$`, `^bad float literal "`, `^bad integer literal "`, `^unexpected character "`,
	// syntax
	`^expected ".+", found `, `^expected identifier, found `, `^file must start with 'program <name>'$`,
	`^array \w+ needs at least one dimension$`, `^seed needs an integer literal$`, `^expected 'double' or 'long'$`,
	`^unterminated block$`, `^step needs an integer literal$`, `^expected statement, found `, `^expected expression, found `,
	// declarations and statements
	`^(param|array|scalar) "\w+" redeclares (param|array|scalar)$`, `^param \w+: value must be constant \(no division by zero\)$`,
	`^loop step must be positive$`, `^assignment to undeclared scalar "`, `^store to undeclared array "`,
	`^array \w+ has \d+ dimensions, got \d+ subscripts$`,
	// expressions
	`^float literal in integer context$`, `^float scalar "\w+" in integer context$`, `^undeclared identifier "`,
	`^double array "\w+" in integer context$`, `^int\(\) takes 1 argument$`, `^(min|max|fmin|fmax) takes 2 arguments$`,
	`^call \w+\(\) in integer context$`, `^boolean expression in integer context$`, `^operator "!" in integer context$`,
	`^float\(\) takes 1 argument$`, `^unknown function "`, `^\w+ takes \d argument\(s\), got \d+$`,
	`^operator ".+" not valid on floats$`, `^operator "!" in float context$`, `^expected comparison, found "`,
	`^expected boolean expression$`, `^undeclared array "`,
}

// TestParseRecord holds the front end's answer for every source of a
// corpus to testdata/parse.golden: "ok", the sha256 of the printed program
// and its fingerprint, or "err" and the error's position and message. The
// corpus is the checked-in programs, the sources of the error tables, and,
// for the example kernels and the benchmark corpus, every source one
// token's deletion makes and every source one type-changing substitution
// makes: an integer literal written as a float and a float literal
// truncated to an integer, double and long swapped, and a scalar's name
// put where an array's stands or the other way round.
func TestParseRecord(t *testing.T) {
	rec := golden.Open(t, "testdata/parse.golden")
	defer rec.Close()
	msgs := map[string]bool{}
	check := func(cell, src string) {
		prog, err := Parse(src)
		if err == nil {
			sum := sha256.Sum256([]byte(ir.Print(prog)))
			rec.Check(t, cell, fmt.Sprintf("ok %x %016x", sum, prog.Fingerprint()))
			return
		}
		var le *Error
		if !errors.As(err, &le) {
			t.Fatalf("%s: error %v is a %T, not a *Error", cell, err, err)
		}
		msgs[le.Msg] = true
		rec.Check(t, cell, fmt.Sprintf("err %d:%d %s", le.Line, le.Col, le.Msg))
	}
	for i, c := range errorCases {
		check(fmt.Sprintf("errors/%02d", i), c.src)
	}
	for i, c := range divisionCases {
		check(fmt.Sprintf("division/%d", i), c.src)
	}
	for _, glob := range sourceGlobs {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no sources under %s (%v)", glob, err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src, name := string(data), filepath.Base(path)
			check("src/"+name, src)
			if strings.HasPrefix(glob, "testdata/") {
				continue
			}
			toks := tokenSpans(src)
			for i, s := range toks {
				check(fmt.Sprintf("del/%s/%03d", name, i), src[:s[0]]+src[s[1]:])
			}
			for i, sub := range substitutions(src, toks) {
				if sub != "" {
					check(fmt.Sprintf("sub/%s/%03d", name, i), src[:toks[i][0]]+sub+src[toks[i][1]:])
				}
			}
		}
	}
	for _, pat := range reachable {
		re := regexp.MustCompile(pat)
		found := false
		for m := range msgs {
			found = found || re.MatchString(m)
		}
		if !found {
			t.Errorf("no cell reports an error matching %s", pat)
		}
	}
}

// tokenSpans returns the byte range of each token of src, read as the
// lexer reads it; src must lex.
func tokenSpans(src string) [][2]int {
	var out [][2]int
	letter := func(c byte) bool { return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }
	digit := func(c byte) bool { return '0' <= c && c <= '9' }
	for i := 0; i < len(src); {
		c, j := src[i], i+1
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
			continue
		case strings.HasPrefix(src[i:], "//"):
			for i < len(src) && src[i] != '\n' {
				i++
			}
			continue
		case strings.HasPrefix(src[i:], "/*"):
			i += strings.Index(src[i:], "*/") + 2
			continue
		case letter(c):
			for j < len(src) && (letter(src[j]) || digit(src[j])) {
				j++
			}
		case digit(c):
			for j < len(src) && (digit(src[j]) || src[j] == '.' && !strings.HasPrefix(src[j:], "..") || src[j] == 'e' || src[j] == 'E') {
				if j++; (src[j-1] == 'e' || src[j-1] == 'E') && j < len(src) && (src[j] == '+' || src[j] == '-') {
					j++
				}
			}
		default:
			for _, p := range punct2 {
				if strings.HasPrefix(src[i:], p) {
					j = i + 2
				}
			}
		}
		out = append(out, [2]int{i, j})
		i = j
	}
	return out
}

// substitutions returns, for each token of src, the text that changes its
// type, or "": an integer literal gains ".0", a float literal loses its
// fraction, double and long swap, and a declared scalar's name becomes the
// first array's and an array's the first scalar's.
func substitutions(src string, toks [][2]int) []string {
	text := func(i int) string {
		if i >= len(toks) {
			return ""
		}
		return src[toks[i][0]:toks[i][1]]
	}
	// The declared names: after "scalar <kind>" a comma list of names, after
	// "array <kind>" a comma list of names each followed by its extents.
	kind := map[string]string{}
	var firstScalar, firstArray string
	for i := 0; i < len(toks); i++ {
		what := text(i)
		if what != "scalar" && what != "array" {
			continue
		}
		for i += 2; ; i++ {
			kind[text(i)] = what
			if what == "scalar" && firstScalar == "" {
				firstScalar = text(i)
			}
			if what == "array" && firstArray == "" {
				firstArray = text(i)
			}
			for depth := 0; text(i+1) == "[" || depth > 0; i++ {
				switch text(i + 1) {
				case "[":
					depth++
				case "]":
					depth--
				}
			}
			if text(i+1) != "," {
				break
			}
			i++
		}
	}
	out := make([]string, len(toks))
	for i := range toks {
		s := text(i)
		switch {
		case s == "double":
			out[i] = "long"
		case s == "long":
			out[i] = "double"
		case s[0] >= '0' && s[0] <= '9' && strings.Trim(s, "0123456789") == "":
			out[i] = s + ".0"
		case s[0] >= '0' && s[0] <= '9':
			if f, err := strconv.ParseFloat(s, 64); err == nil {
				out[i] = strconv.FormatInt(int64(f), 10)
			}
		case kind[s] == "scalar":
			out[i] = firstArray
		case kind[s] == "array":
			out[i] = firstScalar
		}
	}
	return out
}
