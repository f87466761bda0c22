// Command collabscope runs collaborative scoping and schema matching over
// schema files (.sql DDL or .json).
//
// Usage:
//
//	collabscope stats  s1.sql s2.sql ...
//	collabscope stats  -metrics http://host:8080/v1/metrics
//	collabscope scope  -v 0.8 [-out dir] s1.sql s2.json ...
//	collabscope scope  -method global -detector pca:0.5 -p 0.7 s1.sql s2.sql
//	collabscope match  -matcher lsh:5 [-scope 0.8] s1.sql s2.sql ...
//	collabscope eval   -truth links.json -matcher sim:0.6 -v 0.8 s1.sql s2.sql
//	collabscope serve  -addr 127.0.0.1:8080 -v 0.8 [-registry dir] [-pprof] s1.sql
//	collabscope fetch  -peers http://host1:8080,http://host2:8080 [-out dir]
//	collabscope assess -peers http://host1:8080 s1.sql
//	collabscope assess -server http://hub:8080 [-tenant t] s1.sql
//	collabscope push   -server http://hub:8080 -models a.model.json,b.model.json
//
// Schema files ending in .sql are parsed as CREATE TABLE DDL (the schema is
// named after the file); .json files use the schema JSON format.
//
// serve runs the scoping service: it trains the given schemas' models (if
// any), publishes them at /v1/models/<schema> (wire format v1, content-hash
// ETags), accepts model uploads at POST /v1/models, and answers
// linkability queries at POST /v1/assess — with -registry, the uploaded
// registry survives restarts. fetch harvests peers' models to files,
// tolerating flaky peers; assess accepts -models files, -peers hubs, a
// -server scoping service, or a mix; push uploads trained model files into
// a running service's registry.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"collabscope"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "stats":
		runStats(args)
	case "scope":
		runScope(args)
	case "match":
		runMatch(args)
	case "eval":
		runEval(args)
	case "train":
		runTrain(args)
	case "update":
		runUpdate(args)
	case "assess":
		runAssess(args)
	case "integrate":
		runIntegrate(args)
	case "suggest":
		runSuggest(args)
	case "serve":
		runServe(args)
	case "fetch":
		runFetch(args)
	case "push":
		runPush(args)
	default:
		usage()
	}
}

// runServe runs the scoping service: train the local model(s), publish
// them, and serve the /v1 API (uploads, assess hot path, metrics) until
// killed. With -registry, uploads and published models survive restarts.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	v := fs.Float64("v", 0.8, "global explained variance")
	pprofFlag := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (off by default)")
	registry := fs.String("registry", "", "persist the model registry in this directory (survives restarts)")
	queue := fs.Int("queue", 0, "max concurrent assess computations before 429 load shedding (default 64)")
	tenantQuota := fs.Int("tenant-quota", 0, "per-tenant in-flight assess cap (default: -queue)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight work on SIGTERM before it is cancelled")
	pf := pipelineFlags(fs)
	fs.Parse(args)
	if len(fs.Args()) == 0 && *registry == "" {
		fatalf("no schema files given (serving an empty registry needs -registry so uploads persist)")
	}

	reg := collabscope.NewMetrics()
	pipe := pf.build(collabscope.WithMetrics(reg))
	var models []*collabscope.Model
	for _, s := range loadSchemasOptional(fs.Args()) {
		m, err := pipe.TrainModel(s, *v)
		fatal(err)
		models = append(models, m)
		fmt.Printf("trained %s: %d components at v=%.2f, linkability range %.4g\n",
			s.Name, m.Components(), *v, m.Range)
	}
	opts := []collabscope.ServerOption{
		collabscope.WithServerModels(models...),
		collabscope.WithServerMetrics(reg),
		collabscope.WithServerAdmission(collabscope.AdmissionConfig{
			QueueDepth: *queue, TenantQuota: *tenantQuota,
		}),
	}
	if *pf.workers > 0 {
		opts = append(opts, collabscope.WithServerWorkers(*pf.workers))
	}
	if *registry != "" {
		opts = append(opts, collabscope.WithServerRegistry(*registry))
	}
	if *pprofFlag {
		opts = append(opts, collabscope.WithServerPprof())
	}
	handler, err := collabscope.NewScopingServer(opts...)
	fatal(err)
	ln, err := net.Listen("tcp", *addr)
	fatal(err)
	fmt.Printf("serving %d model(s) at http://%s/v1/models (assess at POST http://%s/v1/assess)\n",
		len(handler.Schemas()), ln.Addr(), ln.Addr())
	fmt.Printf("metrics snapshot at http://%s/v1/metrics (view with `collabscope stats -metrics http://%s/v1/metrics`)\n",
		ln.Addr(), ln.Addr())
	if *registry != "" {
		fmt.Printf("registry persisted in %s\n", *registry)
	}
	if *pprofFlag {
		fmt.Printf("pprof enabled at http://%s/debug/pprof/\n", ln.Addr())
	}

	// Serve until SIGTERM/SIGINT, then drain: readiness flips to 503 and new
	// work is refused immediately, in-flight flights get -drain-timeout to
	// finish, the registry manifest is flushed, and only then does the
	// listener close — the graceful-rollout contract of DESIGN.md §14.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "collabscope: shutdown signal received, draining")
		dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := handler.Drain(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "collabscope: drain: %v\n", err)
		}
		if err := hs.Shutdown(dctx); err != nil {
			_ = hs.Close()
		}
		fmt.Fprintln(os.Stderr, "collabscope: drained")
	}
}

// runPush uploads trained model files into a running service's registry.
func runPush(args []string) {
	fs := flag.NewFlagSet("push", flag.ExitOnError)
	server := fs.String("server", "", "scoping service base URL (required)")
	modelsArg := fs.String("models", "", "comma-separated model files to upload (required)")
	tenant := fs.String("tenant", "", "tenant namespace (default: the hub's default tenant)")
	fs.Parse(args)
	if *server == "" || *modelsArg == "" {
		fatalf("-server and -models are required")
	}
	pipe := collabscope.New()
	for _, path := range strings.Split(*modelsArg, ",") {
		fh, err := os.Open(strings.TrimSpace(path))
		fatal(err)
		m, err := collabscope.ReadModelJSON(fh)
		fatal(err)
		fatal(fh.Close())
		fatal(pipe.UploadModel(context.Background(), *server, *tenant, m))
		fmt.Printf("uploaded %s (%d components, range %.4g) -> %s\n",
			m.Schema, m.Components(), m.Range, *server)
	}
}

// runFetch implements the consumer side: harvest peers' models into files,
// keeping whatever healthy peers provide and reporting the rest.
func runFetch(args []string) {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	peersArg := fs.String("peers", "", "comma-separated peer base URLs (required)")
	out := fs.String("out", ".", "directory to write <schema>.model.json files into")
	retries := fs.Int("retries", 0, "attempts per request (default 3)")
	timeout := fs.Duration("timeout", 0, "per-request timeout (default 5s)")
	fs.Parse(args)
	if *peersArg == "" {
		fatalf("-peers is required")
	}

	pipe := collabscope.New(collabscope.WithRetryPolicy(collabscope.RetryPolicy{
		MaxAttempts: *retries, Timeout: *timeout,
	}))
	models, failed := pipe.FetchModels(context.Background(), splitPeers(*peersArg))
	fatal(os.MkdirAll(*out, 0o755))
	for _, m := range models {
		path := filepath.Join(*out, m.Schema+".model.json")
		fh, err := os.Create(path)
		fatal(err)
		fatal(m.WriteJSON(fh))
		fatal(fh.Close())
		fmt.Printf("fetched %s (%d components, range %.4g) -> %s\n",
			m.Schema, m.Components(), m.Range, path)
	}
	for _, pe := range failed {
		fmt.Fprintf(os.Stderr, "collabscope: peer failed: %s\n", pe)
	}
	if len(models) == 0 && len(failed) > 0 {
		fatalf("no peer delivered a model")
	}
}

func splitPeers(arg string) []string {
	var peers []string
	for _, p := range strings.Split(arg, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

// runSuggest proposes an explained-variance setting label-free.
func runSuggest(args []string) {
	fs := flag.NewFlagSet("suggest", flag.ExitOnError)
	pf := pipelineFlags(fs)
	fs.Parse(args)

	schemas := loadSchemas(fs.Args())
	pipe := pf.build()
	v, err := pipe.SuggestVariance(schemas, nil)
	fatal(err)
	res, err := pipe.CollaborativeScope(schemas, v)
	fatal(err)
	fmt.Printf("suggested explained variance v=%.2f (keeps %d of %d elements)\n",
		v, res.Kept, res.Kept+res.Pruned)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: collabscope <stats|scope|match|eval|train|update|assess|integrate|suggest|serve|fetch|push> [flags] schema files...")
	os.Exit(2)
}

// runIntegrate scopes, matches, clusters the linkages, and emits a mediated
// schema with UNION ALL view skeletons.
func runIntegrate(args []string) {
	fs := flag.NewFlagSet("integrate", flag.ExitOnError)
	matcher := fs.String("matcher", "sim:0.6",
		"matcher: "+strings.Join(collabscope.Matchers(), ", ")+" (name or name:param)")
	scopeV := fs.Float64("scope", 0.5, "collaborative scoping variance (0 = integrate originals)")
	pf := pipelineFlags(fs)
	fs.Parse(args)

	schemas := loadSchemas(fs.Args())
	pipe := pf.build()
	target := schemas
	if *scopeV > 0 {
		res, err := pipe.CollaborativeScope(schemas, *scopeV)
		fatal(err)
		target = res.Streamlined
		fmt.Printf("scoped at v=%.2f: kept %d, pruned %d\n", *scopeV, res.Kept, res.Pruned)
	}
	pairs := pipe.Match(parseMatcher(*matcher), target)
	fmt.Printf("%d linkage candidates\n\n", len(pairs))

	med := collabscope.BuildMediated(schemas, pairs)
	for _, mt := range med.Tables {
		fmt.Println(collabscope.UnionView(mt))
		fmt.Println()
	}
}

// runTrain implements the distributed workflow's producer side: train the
// local model (Algorithm 1) and write it to a file for exchange.
func runTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	v := fs.Float64("v", 0.8, "global explained variance")
	out := fs.String("out", "", "model output file (default <schema>.model.json)")
	pf := pipelineFlags(fs)
	fs.Parse(args)

	schemas := loadSchemas(fs.Args())
	if len(schemas) != 1 {
		fatalf("train expects exactly one schema file")
	}
	pipe := pf.build()
	model, err := pipe.TrainModel(schemas[0], *v)
	fatal(err)

	path := *out
	if path == "" {
		path = schemas[0].Name + ".model.json"
	}
	fh, err := os.Create(path)
	fatal(err)
	fatal(model.WriteJSON(fh))
	fatal(fh.Close())
	fmt.Printf("trained %s: %d components at v=%.2f, linkability range %.4g -> %s\n",
		schemas[0].Name, model.Components(), *v, model.Range, path)
}

// runUpdate implements incremental maintenance for evolving schemas: the
// training state (rows + sufficient statistics) persists in -state, each
// run applies the schema file as a diff against it, and only the delta is
// re-accumulated before the model is retrained and written — so a DDL
// change costs one state diff instead of a cold retrain pipeline. With
// -push the refreshed model is republished, bumping its registry version
// so peers and the scoping service delta-assess against it.
func runUpdate(args []string) {
	fs := flag.NewFlagSet("update", flag.ExitOnError)
	v := fs.Float64("v", 0.8, "global explained variance")
	state := fs.String("state", "", "state directory holding the incremental training state (required)")
	out := fs.String("out", "", "model output file (default <schema>.model.json)")
	push := fs.String("push", "", "scoping service base URL: also republish the refreshed model")
	tenant := fs.String("tenant", "", "tenant namespace for -push (default: the hub's default tenant)")
	pf := pipelineFlags(fs)
	fs.Parse(args)
	if *state == "" {
		fatalf("-state is required (it holds the incremental training state between runs)")
	}

	schemas := loadSchemas(fs.Args())
	if len(schemas) != 1 {
		fatalf("update expects exactly one schema file")
	}
	pipe := pf.build()
	up, err := pipe.UpdateModel(schemas[0], *v, *state)
	fatal(err)

	path := *out
	if path == "" {
		path = schemas[0].Name + ".model.json"
	}
	fh, err := os.Create(path)
	fatal(err)
	fatal(up.Model.WriteJSON(fh))
	fatal(fh.Close())
	if up.Resumed {
		fmt.Printf("updated %s: +%d -%d ~%d elements, state version %d -> %s\n",
			schemas[0].Name, up.Added, up.Removed, up.Changed, up.Version, path)
	} else {
		fmt.Printf("initialised %s: %d elements, state version %d -> %s\n",
			schemas[0].Name, up.Added, up.Version, path)
	}
	if *push != "" {
		fatal(pipe.UploadModel(context.Background(), *push, *tenant, up.Model))
		fmt.Printf("republished %s (%d components, range %.4g) -> %s\n",
			up.Model.Schema, up.Model.Components(), up.Model.Range, *push)
	}
}

// runAssess implements the consumer side: assess the local schema against
// exchanged foreign models (Algorithm 2) and report/stream the verdicts.
func runAssess(args []string) {
	fs := flag.NewFlagSet("assess", flag.ExitOnError)
	modelsArg := fs.String("models", "", "comma-separated foreign model files")
	peersArg := fs.String("peers", "", "comma-separated peer base URLs to fetch foreign models from")
	server := fs.String("server", "", "scoping service base URL: assess via its POST /v1/assess hot path")
	tenant := fs.String("tenant", "", "tenant namespace for -server (default: the hub's default tenant)")
	out := fs.String("out", "", "write the streamlined schema as JSON to this file")
	delta := fs.Bool("delta", false, "delta assessment: persist per-model score columns in -state and re-score only models that changed since the last run")
	state := fs.String("state", "", "state directory for -delta score columns")
	pf := pipelineFlags(fs)
	fs.Parse(args)
	if *modelsArg == "" && *peersArg == "" && *server == "" {
		fatalf("-models, -peers or -server is required")
	}
	if *delta && *state == "" {
		fatalf("-delta needs -state to persist score columns between runs")
	}
	if *delta && *server != "" {
		fatalf("-delta is a local-assessment flag; the hub runs its own delta cache on /v1/assess")
	}

	schemas := loadSchemas(fs.Args())
	if len(schemas) != 1 {
		fatalf("assess expects exactly one schema file")
	}
	local := schemas[0]
	pipe := pf.build()

	// Service-side assessment: signatures travel to the hub, which runs
	// Algorithm 2 against its registry. Otherwise models are gathered
	// locally (files and/or peer fetches) and assessed in process. Either
	// way the result is the shared Assessment shape, rendered identically.
	var assessment *collabscope.Assessment
	if *server != "" {
		if *modelsArg != "" || *peersArg != "" {
			fatalf("-server assesses against the hub's registry; it cannot be mixed with -models/-peers")
		}
		res, err := pipe.AssessServer(context.Background(), local, *server, *tenant)
		fatal(err)
		if len(res.Used) == 0 {
			fatalf("the hub holds no foreign models for %s (upload some with `collabscope push`)", local.Name)
		}
		assessment = &res.Assessment
	} else {
		var models []*collabscope.Model
		if *modelsArg != "" {
			for _, path := range strings.Split(*modelsArg, ",") {
				fh, err := os.Open(strings.TrimSpace(path))
				fatal(err)
				m, err := collabscope.ReadModelJSON(fh)
				fatal(err)
				fatal(fh.Close())
				models = append(models, m)
			}
		}
		if *peersArg != "" {
			fetched, failed := pipe.FetchModels(context.Background(), splitPeers(*peersArg))
			for _, pe := range failed {
				fmt.Fprintf(os.Stderr, "collabscope: peer failed, assessing without it: %s\n", pe)
			}
			models = append(models, fetched...)
		}
		// Drop any model published under the local schema's own name:
		// Algorithm 2 assesses against foreign models only.
		foreign := models[:0]
		var used []string
		for _, m := range models {
			if m.Schema != local.Name {
				foreign = append(foreign, m)
				used = append(used, m.Schema)
			}
		}
		if len(foreign) == 0 {
			fatalf("no foreign models available (all peers failed?)")
		}
		if *delta {
			verdicts, rep, err := pipe.AssessDeltaState(local, foreign, *state)
			fatal(err)
			fmt.Printf("delta assessment: %d passes re-scored, %d reused\n", rep.Rescored, rep.Reused)
			assessment = &collabscope.Assessment{Verdicts: verdicts, Used: used}
		} else {
			assessment = &collabscope.Assessment{Verdicts: pipe.Assess(local, foreign), Used: used}
		}
	}

	streamlined := local.Subset(assessment.Verdicts)
	fmt.Printf("%s: %d -> %d elements (assessed against %s)\n", local.Name,
		local.NumElements(), streamlined.NumElements(), strings.Join(assessment.Used, ", "))
	for _, v := range assessment.List() {
		if !v.Linkable {
			fmt.Printf("  pruned %s\n", v.Element)
		}
	}
	if *out != "" {
		fh, err := os.Create(*out)
		fatal(err)
		fatal(streamlined.WriteJSON(fh))
		fatal(fh.Close())
		fmt.Printf("streamlined schema written to %s\n", *out)
	}
}

func loadSchemas(paths []string) []*collabscope.Schema {
	if len(paths) == 0 {
		fatalf("no schema files given")
	}
	return loadSchemasOptional(paths)
}

// loadSchemasOptional is loadSchemas for subcommands where zero schema
// files is legitimate (`serve -registry` starts from the persisted
// registry alone).
func loadSchemasOptional(paths []string) []*collabscope.Schema {
	var out []*collabscope.Schema
	for _, p := range paths {
		data, err := os.ReadFile(p)
		fatal(err)
		base := strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
		var s *collabscope.Schema
		switch strings.ToLower(filepath.Ext(p)) {
		case ".json":
			s, err = collabscope.ReadSchemaJSON(strings.NewReader(string(data)))
		default:
			s, err = collabscope.ParseDDL(base, string(data))
		}
		fatal(err)
		out = append(out, s)
	}
	return out
}

func runStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	metricsSrc := fs.String("metrics", "",
		"print a metrics snapshot instead of schema stats: a hub's /v1/metrics URL or a snapshot JSON file")
	fs.Parse(args)
	if *metricsSrc != "" {
		printMetrics(*metricsSrc)
		return
	}
	schemas := loadSchemas(fs.Args())
	fmt.Printf("%-20s %7s %11s %9s\n", "Schema", "Tables", "Attributes", "Elements")
	for _, s := range schemas {
		fmt.Printf("%-20s %7d %11d %9d\n", s.Name, s.NumTables(), s.NumAttributes(), s.NumElements())
	}
}

// printMetrics renders a metrics snapshot fetched from a running hub's
// /v1/metrics endpoint (http:// or https:// source) or read from a JSON file.
func printMetrics(src string) {
	var r io.ReadCloser
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		resp, err := http.Get(src)
		fatal(err)
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			fatalf("GET %s: status %d (is the hub running with metrics enabled?)", src, resp.StatusCode)
		}
		r = resp.Body
	} else {
		fh, err := os.Open(src)
		fatal(err)
		r = fh
	}
	defer r.Close()
	snap, err := collabscope.ReadMetricsSnapshotJSON(r)
	fatal(err)
	snap.Fprint(os.Stdout)
}

func runScope(args []string) {
	fs := flag.NewFlagSet("scope", flag.ExitOnError)
	v := fs.Float64("v", 0.8, "global explained variance for collaborative scoping")
	method := fs.String("method", "collaborative", "scoping method: collaborative or global")
	detector := fs.String("detector", "pca:0.5",
		"global scoping detector: "+strings.Join(collabscope.Detectors(), ", ")+" (name or name:param)")
	p := fs.Float64("p", 0.7, "global scoping keep fraction")
	out := fs.String("out", "", "write streamlined schemas as JSON into this directory")
	pf := pipelineFlags(fs)
	fs.Parse(args)
	// Reject malformed flags before any schema is read.
	det := parseDetector(*detector)
	if *method != "collaborative" && *method != "global" {
		fatalf("unknown method %q", *method)
	}

	schemas := loadSchemas(fs.Args())
	pipe := pf.build()

	var res *collabscope.ScopeResult
	var err error
	if *method == "global" {
		res, err = pipe.GlobalScope(schemas, det, *p)
	} else {
		res, err = pipe.CollaborativeScope(schemas, *v)
	}
	fatal(err)

	fmt.Printf("kept %d elements, pruned %d\n", res.Kept, res.Pruned)
	for i, s := range schemas {
		st := res.Streamlined[i]
		fmt.Printf("%-20s %3d -> %3d elements\n", s.Name, s.NumElements(), st.NumElements())
		for _, id := range s.ElementIDs() {
			if !res.Keep[id] {
				fmt.Printf("  pruned %s\n", id)
			}
		}
	}
	if *out != "" {
		fatal(os.MkdirAll(*out, 0o755))
		for _, s := range res.Streamlined {
			fh, err := os.Create(filepath.Join(*out, s.Name+".json"))
			fatal(err)
			fatal(s.WriteJSON(fh))
			fatal(fh.Close())
		}
		fmt.Printf("streamlined schemas written to %s\n", *out)
	}
}

func runMatch(args []string) {
	fs := flag.NewFlagSet("match", flag.ExitOnError)
	matcher := fs.String("matcher", "lsh:5",
		"matcher: "+strings.Join(collabscope.Matchers(), ", ")+" (name or name:param)")
	scopeV := fs.Float64("scope", 0, "collaboratively scope at this variance before matching (0 = off)")
	pf := pipelineFlags(fs)
	indexed := indexFlags(fs)
	fs.Parse(args)

	schemas := loadSchemas(fs.Args())
	pipe := pf.build()
	target := schemas
	if *scopeV > 0 {
		res, err := pipe.CollaborativeScope(schemas, *scopeV)
		fatal(err)
		target = res.Streamlined
		fmt.Printf("scoped at v=%.2f: kept %d, pruned %d\n", *scopeV, res.Kept, res.Pruned)
	}
	pairs := pipe.Match(indexed(*matcher), target)
	for _, pr := range pairs {
		fmt.Printf("%s ~ %s\n", pr.A, pr.B)
	}
	fmt.Printf("%d candidate linkages\n", len(pairs))
}

func runEval(args []string) {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	truthPath := fs.String("truth", "", "ground-truth linkages JSON file (required)")
	matcher := fs.String("matcher", "lsh:5",
		"matcher: "+strings.Join(collabscope.Matchers(), ", ")+" (name or name:param)")
	scopeV := fs.Float64("v", 0.8, "collaborative scoping variance (0 = match originals)")
	pf := pipelineFlags(fs)
	indexed := indexFlags(fs)
	fs.Parse(args)
	if *truthPath == "" {
		fatalf("-truth is required")
	}

	schemas := loadSchemas(fs.Args())
	data, err := os.ReadFile(*truthPath)
	fatal(err)
	truth, err := readTruth(string(data))
	fatal(err)

	pipe := pf.build()
	m := indexed(*matcher)

	sota := collabscope.EvaluateMatch(pipe.Match(m, schemas), truth, schemas)
	fmt.Printf("original   : PQ=%.3f PC=%.3f F1=%.3f RR=%.3f (%d pairs)\n",
		sota.PQ, sota.PC, sota.F1, sota.RR, sota.Generated)
	if *scopeV > 0 {
		res, err := pipe.CollaborativeScope(schemas, *scopeV)
		fatal(err)
		scoped := collabscope.EvaluateMatch(pipe.Match(m, res.Streamlined), truth, schemas)
		fmt.Printf("scoped v=%.2f: PQ=%.3f PC=%.3f F1=%.3f RR=%.3f (%d pairs)\n",
			*scopeV, scoped.PQ, scoped.PC, scoped.F1, scoped.RR, scoped.Generated)
	}
}

// pipelineSpec holds the parsed pipeline flags every subcommand shares;
// build resolves them into a pipeline after flag parsing.
type pipelineSpec struct {
	dim, workers                  *int
	encSpec, encCache, enrichSpec *string
}

// pipelineFlags registers the flags every subcommand's pipeline shares —
// dimensionality, parallelism, the encoder backend, its signature cache,
// and the enrichment stage.
func pipelineFlags(fs *flag.FlagSet) *pipelineSpec {
	return &pipelineSpec{
		dim:        fs.Int("dim", 0, "signature dimensionality (default 768)"),
		workers:    fs.Int("workers", 0, "worker-pool parallelism (default GOMAXPROCS)"),
		encSpec:    fs.String("encoder", "", "encoder backend: hash (default), or remote:<url>"),
		encCache:   fs.String("encoder-cache", "", "directory persisting the remote encoder's signature cache across runs"),
		enrichSpec: fs.String("enrich", "", "comma-separated enrichers applied before encoding: lexicon, fk (default none)"),
	}
}

func (ps *pipelineSpec) build(extra ...collabscope.Option) *collabscope.Pipeline {
	var opts []collabscope.Option
	if *ps.dim > 0 {
		opts = append(opts, collabscope.WithDimension(*ps.dim))
	}
	if *ps.workers > 0 {
		opts = append(opts, collabscope.WithParallelism(*ps.workers))
	}
	if *ps.encSpec != "" {
		opts = append(opts, collabscope.WithEncoderBackend(*ps.encSpec))
	}
	if *ps.encCache != "" {
		opts = append(opts, collabscope.WithEncoderCache(*ps.encCache))
	}
	enrichers, err := collabscope.ParseEnrichers(*ps.enrichSpec)
	fatal(err)
	if len(enrichers) > 0 {
		opts = append(opts, collabscope.WithEnrichers(enrichers...))
	}
	return collabscope.New(append(opts, extra...)...)
}

// indexFlags registers the ANN index-backend flags of the lsh matcher
// family (sublinear search at 10⁵+ signatures). The returned function
// resolves a matcher spec together with the parsed flags: -index rewrites
// an lsh-family name to the chosen backend, and the parameter flags flow
// through WithIndexConfig so they are validated at construction instead of
// being silently discarded.
func indexFlags(fs *flag.FlagSet) func(spec string) collabscope.Matcher {
	kind := fs.String("index", "", "index backend for lsh-family matchers: flat, lsh, hnsw, ivf")
	tables := fs.Int("lsh-tables", 0, "lsh index: hash tables (default 8)")
	bits := fs.Int("lsh-bits", 0, "lsh index: hash bits per table (default 12)")
	m := fs.Int("hnsw-m", 0, "hnsw index: max links per node (default 16)")
	efc := fs.Int("hnsw-efc", 0, "hnsw index: construction beam width (default 128)")
	ef := fs.Int("hnsw-ef", 0, "hnsw index: search beam width (default 64)")
	nlists := fs.Int("ivf-nlists", 0, "ivf index: k-means cells (default ⌈√n⌉)")
	nprobe := fs.Int("ivf-nprobe", 0, "ivf index: cells scanned per query (default nlists/8)")
	seed := fs.Int64("index-seed", 0, "index construction seed (default 1)")
	return func(spec string) collabscope.Matcher {
		if *kind != "" {
			k, err := collabscope.ParseIndexKind(*kind)
			fatal(err)
			spec = reindexSpec(spec, k)
		}
		cfg := collabscope.IndexConfig{
			Tables: *tables, Bits: *bits,
			M: *m, EfConstruction: *efc, EfSearch: *ef,
			NLists: *nlists, NProbe: *nprobe, Seed: *seed,
		}
		mt, err := collabscope.ParseMatcher(spec, collabscope.WithIndexConfig(cfg))
		fatal(err)
		return mt
	}
}

// indexKindNames maps a backend to its lsh-family registry name.
var indexKindNames = map[collabscope.IndexKind]string{
	collabscope.IndexFlat: "lsh",
	collabscope.IndexLSH:  "lsh-approx",
	collabscope.IndexHNSW: "lsh-hnsw",
	collabscope.IndexIVF:  "lsh-ivf",
}

// reindexSpec swaps the registry name of an lsh-family spec for the one
// matching the -index choice, preserving any ":param" suffix.
func reindexSpec(spec string, kind collabscope.IndexKind) string {
	name, param := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, param = spec[:i], spec[i:]
	}
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "lsh", "lsh-approx", "lsh-hnsw", "lsh-ivf":
		return indexKindNames[kind] + param
	}
	fatalf("-index applies to the lsh matcher family, not %q", name)
	return ""
}

// parseDetector and parseMatcher resolve "name:param" specs through the
// library's name-keyed registry; the flag→constructor mapping lives there.
func parseDetector(spec string) collabscope.Detector {
	det, err := collabscope.ParseDetector(spec)
	fatal(err)
	return det
}

func parseMatcher(spec string) collabscope.Matcher {
	m, err := collabscope.ParseMatcher(spec)
	fatal(err)
	return m
}

func readTruth(data string) (*collabscope.GroundTruth, error) {
	return collabscope.ReadGroundTruthJSON(strings.NewReader(data))
}

func fatal(err error) {
	if err != nil {
		// Library errors already carry the "collabscope: " prefix.
		if hint := collabscope.ExplainError(err); hint != "" {
			fmt.Fprintf(os.Stderr, "collabscope: %s\ncollabscope: (%s)\n",
				strings.TrimPrefix(err.Error(), "collabscope: "), hint)
			os.Exit(1)
		}
		fatalf("%s", strings.TrimPrefix(err.Error(), "collabscope: "))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "collabscope: "+format+"\n", args...)
	os.Exit(1)
}
