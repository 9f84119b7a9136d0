package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/adds"
	"repro/adds/wire"
	"repro/internal/alias"
	"repro/internal/core/pathmatrix"
	"repro/internal/core/validation"
	"repro/internal/depgraph"
	"repro/internal/ir"
	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

// compiler calls the layers' public functions in the order the product
// runs them, wrapping each call in a span and counting what it produced.
type compiler struct {
	tr *tracer
	ls *layerStats
}

// fn is one analyzed function: everything the later layers read.
type fn struct {
	info *types.FuncInfo
	g    *norm.Graph
	res  *pathmatrix.Result
	prog *ir.Program
}

// load parses and type-checks a source (the front end of adds.LoadCtx).
func (c *compiler) load(src []byte) (*types.Info, error) {
	id := c.tr.begin("parser")
	prog, err := parser.Parse(src)
	c.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	id = c.tr.begin("types")
	info, errs := types.Check(prog)
	c.tr.end(id)
	if len(errs) > 0 {
		return nil, fmt.Errorf("typecheck: %v", errs[0])
	}
	return info, nil
}

// summaries computes the interprocedural summary table when the engine has
// summaries on, as every analysis entry point does first.
func (c *compiler) summaries(ctx context.Context, info *types.Info) (*pathmatrix.SummaryTable, error) {
	if !pathmatrix.Summarize {
		return nil, nil
	}
	id := c.tr.begin("pathmatrix.summaries")
	defer c.tr.end(id)
	return pathmatrix.ComputeSummariesCtx(ctx, info, info.Env)
}

// analyze runs normalization, the fixpoint and IR lowering for one
// function under a summary table.
func (c *compiler) analyze(ctx context.Context, info *types.Info, fi *types.FuncInfo, tab *pathmatrix.SummaryTable) (*fn, error) {
	id := c.tr.begin("norm")
	g := norm.Build(fi, info.Env)
	c.tr.end(id)
	id = c.tr.begin("pathmatrix.fixpoint")
	res, err := pathmatrix.AnalyzeCtxWith(ctx, g, info.Env, tab)
	c.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("analyze %s: %w", fi.Decl.Name, err)
	}
	id = c.tr.begin("ir")
	prog := ir.Build(fi, info.Env)
	c.tr.end(id)
	c.ls.functions++
	c.ls.normNodes += len(g.Nodes)
	c.ls.irInstrs += len(prog.Instrs)
	return &fn{info: fi, g: g, res: res, prog: prog}, nil
}

// oracle builds a registered alias oracle for an analyzed function, as
// adds.Analysis.OracleNamed does.
func (c *compiler) oracle(ctx context.Context, info *types.Info, f *fn, name string, k int) (alias.Oracle, error) {
	fac, err := alias.Lookup(name)
	if err != nil {
		return nil, err
	}
	id := c.tr.begin("alias." + fac.Name)
	defer c.tr.end(id)
	return fac.Build(ctx, f.g, alias.BuildOpts{
		Env: info.Env, Info: info, Summaries: f.res.Summaries, K: k,
	}), nil
}

// options are the dependence options for loop i under an oracle.
func (f *fn) options(info *types.Info, i int, o alias.Oracle) depgraph.Options {
	return depgraph.Options{
		Oracle:   o,
		NormLoop: f.g.Loops[f.prog.Loops[i].SrcID],
		Env:      info.Env,
		VarTypes: f.info.Vars,
	}
}

// deps builds the dependence graph of loop i under an oracle.
func (c *compiler) deps(info *types.Info, f *fn, i int, o alias.Oracle) *depgraph.Graph {
	id := c.tr.begin("depgraph")
	dg := depgraph.Build(f.prog, f.prog.Loops[i], f.options(info, i, o))
	c.tr.end(id)
	c.ls.depEdges += len(dg.Edges)
	return dg
}

// serve does the work of POST /v1/analyze for one request, as one traced
// item: the composed analysis and the response's encoding.
func (c *compiler) serve(ctx context.Context, req *wire.AnalyzeRequest) (*analyzed, []byte, error) {
	id := c.tr.begin("item")
	defer c.tr.end(id)
	an, err := c.analyzeRequest(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	eid := c.tr.begin("encode")
	defer c.tr.end(eid)
	b, err := json.Marshal(an.resp)
	return an, b, err
}

// analyzed is what analyzeRequest leaves for the references to check.
type analyzed struct {
	resp *wire.AnalyzeResponse
	info *types.Info
	fns  map[string]*fn
	// oracles holds, per function, the request's oracle and, when the
	// function has loops, the gpm comparison oracle.
	oracles map[string][]alias.Oracle
}

// analyzeRequest is the work of POST /v1/analyze for a whole-program
// request (service.BuildAnalyze with no fn and one worker), composed from
// the layers. The response must encode byte-identically to BuildAnalyze's.
func (c *compiler) analyzeRequest(ctx context.Context, req *wire.AnalyzeRequest) (*analyzed, error) {
	if _, err := adds.ParseOracle(req.Oracle); err != nil {
		return nil, err
	}
	info, err := c.load([]byte(req.Source))
	if err != nil {
		return nil, err
	}
	tab, err := c.summaries(ctx, info)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(info.Funcs))
	for name := range info.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	fns := make(map[string]*fn, len(names))
	for _, name := range names {
		f, err := c.analyze(ctx, info, info.Funcs[name], tab)
		if err != nil {
			return nil, err
		}
		fns[name] = f
	}

	resp := &wire.AnalyzeResponse{EngineVersion: pathmatrix.EngineVersion, Functions: []wire.FunctionResult{}}
	used := map[string][]alias.Oracle{}
	for _, fd := range info.Prog.Funcs {
		f := fns[fd.Name]
		oracle, err := c.oracle(ctx, info, f, req.Oracle, req.K)
		if err != nil {
			return nil, err
		}
		used[fd.Name] = append(used[fd.Name], oracle)
		fr := wire.FunctionResult{
			Name:     fd.Name,
			Loops:    len(f.prog.Loops),
			Entry:    f.res.AtEntry(),
			Exit:     f.res.BeforeNode(f.g.Exit),
			LoopData: []wire.LoopResult{},
			Oracles:  []wire.OracleComparison{},
		}
		val := validation.FromResult(f.res)
		fr.Validation = wire.ValidationResult{ValidEverywhere: val.ValidEverywhere(), Intervals: []string{}}
		for _, iv := range val.Intervals() {
			fr.Validation.Intervals = append(fr.Validation.Intervals, iv.String())
		}
		for i := range f.prog.Loops {
			dg := c.deps(info, f, i, oracle)
			carried := len(dg.CarriedMemEdges())
			c.ls.carriedMem += carried
			fr.LoopData = append(fr.LoopData, wire.LoopResult{
				Index:           i,
				Matrix:          f.res.LoopHead(f.g.Loops[i]),
				Iteration:       f.res.IterationMatrix(f.g.Loops[i]),
				Dependences:     dg,
				CarriedMemEdges: carried,
			})
			for _, cmp := range []string{"conservative", "classic", "gpm"} {
				o, err := c.oracle(ctx, info, f, cmp, req.K)
				if err != nil {
					return nil, err
				}
				if cmp == "gpm" && i == 0 {
					used[fd.Name] = append(used[fd.Name], o)
				}
				fr.Oracles = append(fr.Oracles, wire.OracleComparison{
					Oracle:          cmp,
					Loop:            i,
					CarriedMemEdges: len(c.deps(info, f, i, o).CarriedMemEdges()),
				})
			}
		}
		resp.Functions = append(resp.Functions, fr)
	}
	return &analyzed{resp: resp, info: info, fns: fns, oracles: used}, nil
}
