package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// flagdrift flags a scenario/serve/router knob being defined outside
// its canonical Bind*Flags block in flags.go. The shared blocks exist
// because the binaries used to drift (cmd/simulate defaulted to 50
// tasks while cmd/schedule said 300 — the PR 3 class); a stray
// `fs.IntVar(&v, "tasks", ...)` in a cmd reintroduces exactly that.
// Binary-specific flags ("-reps", "-exp") are anyone's to define; only
// the canonical knob names are reserved.
type flagdrift struct{}

func init() { Register(flagdrift{}) }

func (flagdrift) Name() string { return "flagdrift" }
func (flagdrift) Doc() string {
	return "scenario/serve/router knob flag defined outside its Bind*Flags block"
}

// knobOwners mirrors flags.go: every flag name a Bind*Flags block
// defines, mapped to the block that owns it. Keep in lockstep with
// flags.go when adding knobs.
var knobOwners = map[string]string{
	// BindScenarioFlags
	"family": "BindScenarioFlags", "input": "BindScenarioFlags",
	"tasks": "BindScenarioFlags", "procs": "BindScenarioFlags",
	"pfail": "BindScenarioFlags", "ccr": "BindScenarioFlags",
	"seed": "BindScenarioFlags", "bw": "BindScenarioFlags",
	"workers": "BindScenarioFlags", "ragged": "BindScenarioFlags",
	// BindServeFlags
	"addr": "BindServeFlags", "cache": "BindServeFlags",
	"shards": "BindServeFlags", "structure-cache": "BindServeFlags",
	"drain": "BindServeFlags", "warm-workers": "BindServeFlags",
	"stream-cells": "BindServeFlags", "max-inflight": "BindServeFlags",
	"request-timeout": "BindServeFlags", "tail": "BindServeFlags",
	"store": "BindServeFlags", "store-compact": "BindServeFlags",
	// BindLBFlags (addr/drain/cooldown shared spellings live above)
	"backends": "BindLBFlags", "vnodes": "BindLBFlags",
	"cooldown": "BindLBFlags",
}

// bindFuncs are the only functions allowed to define knob flags.
var bindFuncs = map[string]bool{
	"BindScenarioFlags": true, "BindServeFlags": true, "BindLBFlags": true,
}

func (flagdrift) Check(p *Package, report func(pos token.Pos, format string, args ...any)) {
	eachFuncDecl(p, func(fd *ast.FuncDecl) {
		if bindFuncs[fd.Name.Name] {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeOf(p.Info, call)
			if obj == nil || calleePkg(obj) != "flag" {
				return true
			}
			idx, ok := flagNameArgIndex(obj.Name())
			if !ok || idx >= len(call.Args) {
				return true
			}
			lit, ok := ast.Unparen(call.Args[idx]).(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if owner, reserved := knobOwners[name]; reserved {
				report(call.Pos(), "flag %q is a shared knob owned by %s (flags.go); defining it here lets the binaries drift apart on defaults", name, owner)
			}
			return true
		})
	})
}

// flagNameArgIndex maps a flag-definition function to the position of
// its name argument: flag.String("name", ...) vs flag.StringVar(&v,
// "name", ...). Non-defining flag functions return !ok.
func flagNameArgIndex(fn string) (int, bool) {
	switch fn {
	case "Bool", "Duration", "Float64", "Int", "Int64", "String", "Uint", "Uint64":
		return 0, true
	case "Func", "BoolFunc":
		return 0, true
	}
	if strings.HasSuffix(fn, "Var") && fn != "Var" {
		return 1, true
	}
	if fn == "Var" || fn == "TextVar" {
		return 1, true
	}
	return 0, false
}
