# Tier-1 verification is one command: `make check` runs everything the
# driver gates on (vet, build, full tests under the race detector) plus a
# one-iteration benchmark smoke and the perfbench module's vet and tests,
# so a broken benchmark harness fails fast.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check vet build test race bench-smoke perfbench-check bench-scaling golden-update fuzz-smoke fuzz-store serve-smoke stress-smoke replica-smoke lint lint-invariants

check: vet build lint-invariants race bench-smoke perfbench-check

# The scaling build tag gates scaling_test.go (see bench-scaling);
# vetting with it compiles that file on every check and lint run.
vet:
	$(GO) vet ./...
	$(GO) vet -tags scaling .

# The repo-invariant analyzers (internal/lint): determinism, error
# discipline, lock hygiene, ctx flow, flag-block ownership and unused
# internal/ API (deadapi). Exits 1 on any unsuppressed finding;
# //hanccr:allow documents the exceptions.
lint-invariants:
	$(GO) run ./cmd/hanccr-lint

# One lint umbrella: formatting, vet and the invariant analyzers —
# what the CI lint job runs.
lint: vet lint-invariants
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench-smoke:
	$(GO) test -run '^$$' -bench 'EstimatorPathApprox$$|EstimatorDodin$$|EstimatorDodinMontage$$|SimulatorTrial$$|PlanFromScaffold$$|FullPipeline300$$|ColdMix$$|RunSweepWorkers/workers=1$$|Generate1000$$|EstimateHotMonteCarlo$$|SimulateHot$$|EstimateHotMemo$$|StoreWriteThrough$$|StoreLoad$$' -benchtime 1x -benchmem .

# perfbench/ is a Go module of its own (repro/perfbench, replace repro
# => ../), so the root ./... patterns skip it: vet and test it here so a
# change to the Service API it drives cannot break it silently.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Wall-clock gates (scaling_test.go, behind the scaling build tag):
# the sweep, streamed sweep, simulator and batch hot paths at one
# worker vs NumCPU workers, and a batch of parameter variants of one
# structure vs an equal batch of cold structures. On a multicore host
# each FAILS when its speedup is below 1.0; each speedup is logged.
bench-scaling:
	$(GO) test -tags scaling -run '^(TestParallelScaling|TestNearDupFastPath)$$' -count=1 -v .

# Rewrite the golden paper-fidelity expectations after an INTENTIONAL
# numeric change; inspect the testdata/golden diff before committing.
golden-update:
	$(GO) test -run TestGolden -update .

# Boot cmd/serve with a plan store, hit every endpoint (plan, batch,
# sweep, healthz, stats, store), tear down. Proves the daemon wiring —
# listen, JSON round trips, store write-through, graceful shutdown —
# outside the httptest harness. Three phases: endpoints, overload
# protection, and restart persistence (boot with -store, serve one
# plan, SIGTERM, reboot over the same directory, assert the first
# request is a cache hit with zero planner misses).
serve-smoke:
	$(GO) build -o /tmp/hanccr-serve ./cmd/serve
	@set -e; \
	rm -rf /tmp/hanccr-smoke-store; \
	/tmp/hanccr-serve -addr 127.0.0.1:18080 -store /tmp/hanccr-smoke-store & pid=$$!; \
	trap "kill $$pid 2>/dev/null || true" EXIT; \
	ok=0; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://127.0.0.1:18080/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "serve-smoke: daemon never came up"; exit 1; }; \
	curl -fsS http://127.0.0.1:18080/healthz | grep -q '"status":"ok"' \
		|| { echo "serve-smoke: healthz is not ok"; exit 1; }; \
	curl -fsS -X POST -d '{"family":"genome","tasks":50,"procs":5}' \
		http://127.0.0.1:18080/v1/plan | grep -q '"expected_makespan"'; \
	curl -fsS -X POST -d '{"jobs":[{"kind":"plan","family":"ligo","tasks":50,"procs":5},{"kind":"estimate","family":"montage","tasks":50,"procs":5,"method":"Dodin"}]}' \
		http://127.0.0.1:18080/v1/batch | grep -q '"results"'; \
	curl -fsS -X POST -d '{"family":"genome","sizes":[50],"procs":[5],"pfails":[0.001],"ccr_min":0.001,"ccr_max":0.001,"points_per_decade":5}' \
		http://127.0.0.1:18080/v1/sweep | grep -q '"rows"'; \
	curl -fsS -N -X POST -H 'Accept: application/x-ndjson' \
		-d '{"family":"genome","sizes":[50],"procs":[5],"pfails":[0.001],"ccr_min":0.001,"ccr_max":0.01,"points_per_decade":5}' \
		http://127.0.0.1:18080/v1/sweep > /tmp/hanccr-stream.ndjson; \
	head -1 /tmp/hanccr-stream.ndjson | grep -q '"cells":6' \
		|| { echo "serve-smoke: streamed sweep header lacks the cell count"; exit 1; }; \
	rows=$$(grep -c '"tasks"' /tmp/hanccr-stream.ndjson || true); \
	[ "$$rows" -eq 6 ] || { echo "serve-smoke: streamed sweep returned $$rows rows, want 6"; exit 1; }; \
	chunks=$$(curl --raw -fsS -X POST -H 'Accept: application/x-ndjson' \
		-d '{"family":"genome","sizes":[50],"procs":[5],"pfails":[0.001],"ccr_min":0.001,"ccr_max":0.01,"points_per_decade":5}' \
		http://127.0.0.1:18080/v1/sweep | tr -d '\r' | grep -cE '^[0-9a-fA-F]+$$' || true); \
	[ "$$chunks" -ge 2 ] || { echo "serve-smoke: streamed sweep arrived in $$chunks chunks, want >= 2 (one flush per row)"; exit 1; }; \
	curl -fsS http://127.0.0.1:18080/v1/stats | grep -q '"store":{[^}]*"records":3[,}]' \
		|| { echo "serve-smoke: store does not hold the 3 distinct planned scenarios (genome plan, ligo plan, montage estimate)"; exit 1; }; \
	curl -fsS http://127.0.0.1:18080/v1/store | grep -c '"key"' | grep -qx 3 \
		|| { echo "serve-smoke: GET /v1/store did not stream the 3 stored records"; exit 1; }; \
	kill -TERM $$pid; wait $$pid || true; \
	grep -q '"family":"ligo"' /tmp/hanccr-smoke-store/plans-*.seg \
		|| { echo "serve-smoke: the batch-planned ligo scenario is not on disk"; exit 1; }; \
	echo "serve-smoke: endpoints OK, starting overload boot"; \
	/tmp/hanccr-serve -addr 127.0.0.1:18081 -max-inflight 1 -drain 10s & pid2=$$!; \
	trap "kill $$pid2 2>/dev/null || true" EXIT; \
	ok=0; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://127.0.0.1:18081/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "serve-smoke: overload daemon never came up"; exit 1; }; \
	curl -fsS http://127.0.0.1:18081/v1/stats | grep -q '"max_inflight":1' \
		|| { echo "serve-smoke: /v1/stats does not report -max-inflight 1"; exit 1; }; \
	curl -fsS -X POST -d '{"family":"genome","tasks":300,"procs":35,"trials":3000000}' \
		http://127.0.0.1:18081/v1/simulate > /tmp/hanccr-slow-sim.json & simpid=$$!; \
	sleep 0.3; \
	shed=0; \
	for i in $$(seq 1 100); do \
		code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST \
			-d '{"family":"montage","tasks":50,"procs":5}' http://127.0.0.1:18081/v1/plan); \
		if [ "$$code" = "429" ]; then shed=1; break; fi; \
		sleep 0.05; \
	done; \
	[ $$shed -eq 1 ] || { echo "serve-smoke: -max-inflight 1 never shed a 429 while the slow simulate held the slot"; exit 1; }; \
	curl -fsS http://127.0.0.1:18081/v1/stats | grep -q '"shed":0' \
		&& { echo "serve-smoke: /v1/stats shed counter stayed 0 after a 429"; exit 1; }; \
	kill -TERM $$pid2; \
	drain=0; \
	for i in $$(seq 1 40); do \
		code=$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:18081/healthz); \
		if [ "$$code" = "503" ]; then drain=1; break; fi; \
		sleep 0.05; \
	done; \
	[ $$drain -eq 1 ] || { echo "serve-smoke: requests during drain did not get a deterministic 503"; exit 1; }; \
	wait $$simpid || { echo "serve-smoke: in-flight simulate was cut off by the drain"; exit 1; }; \
	grep -q '"mean"' /tmp/hanccr-slow-sim.json \
		|| { echo "serve-smoke: in-flight simulate returned no result through the drain"; exit 1; }; \
	wait $$pid2 || true; \
	echo "serve-smoke: overload OK, starting restart-persistence boot"; \
	rm -rf /tmp/hanccr-store; \
	/tmp/hanccr-serve -addr 127.0.0.1:18082 -store /tmp/hanccr-store & pid3=$$!; \
	trap "kill $$pid3 2>/dev/null || true" EXIT; \
	ok=0; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://127.0.0.1:18082/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "serve-smoke: store daemon never came up"; exit 1; }; \
	curl -fsS -D /tmp/hanccr-store-h1.txt -o /tmp/hanccr-store-b1.json -X POST \
		-d '{"family":"genome","tasks":50,"procs":5}' http://127.0.0.1:18082/v1/plan; \
	tr -d '\r' < /tmp/hanccr-store-h1.txt | grep -qi '^x-cache: miss' \
		|| { echo "serve-smoke: first-boot plan on an empty store was not a miss"; exit 1; }; \
	kill -TERM $$pid3; wait $$pid3 || true; \
	/tmp/hanccr-serve -addr 127.0.0.1:18083 -store /tmp/hanccr-store & pid4=$$!; \
	trap "kill $$pid4 2>/dev/null || true" EXIT; \
	ok=0; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://127.0.0.1:18083/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "serve-smoke: restarted store daemon never came up"; exit 1; }; \
	curl -fsS -D /tmp/hanccr-store-h2.txt -o /tmp/hanccr-store-b2.json -X POST \
		-d '{"family":"genome","tasks":50,"procs":5}' http://127.0.0.1:18083/v1/plan; \
	tr -d '\r' < /tmp/hanccr-store-h2.txt | grep -qi '^x-cache: hit' \
		|| { echo "serve-smoke: restart did not rehydrate the plan from the store (first request missed)"; exit 1; }; \
	cmp /tmp/hanccr-store-b1.json /tmp/hanccr-store-b2.json \
		|| { echo "serve-smoke: rehydrated plan response differs from the pre-restart bytes"; exit 1; }; \
	curl -fsS http://127.0.0.1:18083/v1/stats > /tmp/hanccr-store-stats.json; \
	grep -q '"cache":{[^}]*"misses":0[,}]' /tmp/hanccr-store-stats.json \
		|| { echo "serve-smoke: restarted daemon re-ran the planner (misses != 0)"; exit 1; }; \
	grep -q '"store":{[^}]*"loads":1[,}]' /tmp/hanccr-store-stats.json \
		|| { echo "serve-smoke: restarted daemon did not load 1 record at boot"; exit 1; }; \
	kill -TERM $$pid4; wait $$pid4 || true; \
	echo "serve-smoke: OK"

# The resilience suite (admission gate saturation, request budgets,
# drain) plus the mixed-traffic stress test under the race detector —
# the overload-protection gate CI runs next to serve-smoke.
stress-smoke:
	$(GO) test -race -count=1 -run 'TestResilience|TestStressMixedTrafficUnderSaturation' -v .

# Short fuzz pass over every fuzz target in the tree. Packages and
# targets are derived via `go list` / `go test -list`, so the target
# survives package moves (it used to hardcode ./internal/wfdag/).
fuzz-smoke:
	@set -e; \
	for pkg in $$($(GO) list ./...); do \
		for fz in $$($(GO) test -run '^$$' -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz $$pkg $$fz ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$fz$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# The plan store's parsers of untrusted bytes — segment files
# (FuzzScanSegment), record framing (FuzzStoreLine), a peer's GET
# /v1/store stream (FuzzStoreStream) — and the record payload behind
# them: its v1/v2 reader against encoding/json (FuzzStoredPlanDecode,
# no planning) and a reload's decode, whose accepted scenarios are
# planned (FuzzDecodePlan), each fuzzed for $(FUZZTIME): the PR-time
# pass CI runs, where fuzz-smoke is the nightly one over every target.
fuzz-store:
	@set -e; \
	for fz in FuzzScanSegment FuzzStoreLine FuzzStoreStream FuzzStoredPlanDecode FuzzDecodePlan; do \
		echo "fuzz $$fz ($(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$fz$$" -fuzztime $(FUZZTIME) .; \
	done

# Boot a 3-replica fleet behind cmd/hanccr-lb, drive mixed scenario
# traffic through the router and assert: responses byte-identical to a
# single serial reference server, aggregate fleet misses == distinct
# scenarios (key affinity dedupes repeats cluster-wide), a -tail
# follower absorbs every replica's records from their GET /v1/store
# without counting a planner miss for any of them, and killing a replica routes
# around it without wrong answers. Ports 19090-19095 (serve-smoke owns
# 1808x).
replica-smoke:
	$(GO) build -o /tmp/hanccr-serve ./cmd/serve
	$(GO) build -o /tmp/hanccr-lb ./cmd/hanccr-lb
	@set -e; \
	rm -rf /tmp/hanccr-r1 /tmp/hanccr-r2 /tmp/hanccr-r3; \
	/tmp/hanccr-serve -addr 127.0.0.1:19091 -store /tmp/hanccr-r1 & p1=$$!; \
	/tmp/hanccr-serve -addr 127.0.0.1:19092 -store /tmp/hanccr-r2 & p2=$$!; \
	/tmp/hanccr-serve -addr 127.0.0.1:19093 -store /tmp/hanccr-r3 & p3=$$!; \
	/tmp/hanccr-serve -addr 127.0.0.1:19094 & pref=$$!; \
	/tmp/hanccr-lb -addr 127.0.0.1:19090 \
		-backends http://127.0.0.1:19091,http://127.0.0.1:19092,http://127.0.0.1:19093 & plb=$$!; \
	trap "kill $$p1 $$p2 $$p3 $$pref $$plb 2>/dev/null || true" EXIT; \
	for port in 19091 19092 19093 19094 19090; do \
		ok=0; \
		for i in $$(seq 1 50); do \
			if curl -fsS http://127.0.0.1:$$port/healthz >/dev/null 2>&1; then ok=1; break; fi; \
			sleep 0.1; \
		done; \
		[ $$ok -eq 1 ] || { echo "replica-smoke: port $$port never came up"; exit 1; }; \
	done; \
	: > /tmp/hanccr-lb-out.txt; : > /tmp/hanccr-ref-out.txt; \
	for pass in 1 2 3; do \
		for seed in 1 2 3 4 5 6; do \
			body="{\"family\":\"genome\",\"tasks\":50,\"procs\":5,\"seed\":$$seed}"; \
			curl -fsS -X POST -d "$$body" http://127.0.0.1:19090/v1/plan >> /tmp/hanccr-lb-out.txt; \
			curl -fsS -X POST -d "$$body" http://127.0.0.1:19094/v1/plan >> /tmp/hanccr-ref-out.txt; \
			echo >> /tmp/hanccr-lb-out.txt; echo >> /tmp/hanccr-ref-out.txt; \
		done; \
		body='{"family":"montage","tasks":50,"procs":5,"seed":7,"method":"Dodin"}'; \
		curl -fsS -X POST -d "$$body" http://127.0.0.1:19090/v1/estimate >> /tmp/hanccr-lb-out.txt; \
		curl -fsS -X POST -d "$$body" http://127.0.0.1:19094/v1/estimate >> /tmp/hanccr-ref-out.txt; \
		echo >> /tmp/hanccr-lb-out.txt; echo >> /tmp/hanccr-ref-out.txt; \
	done; \
	diff /tmp/hanccr-lb-out.txt /tmp/hanccr-ref-out.txt \
		|| { echo "replica-smoke: routed responses differ from the serial reference"; exit 1; }; \
	misses=0; \
	for port in 19091 19092 19093; do \
		m=$$(curl -fsS http://127.0.0.1:$$port/v1/stats | sed -n 's/.*"cache":{[^}]*"misses":\([0-9]*\).*/\1/p'); \
		misses=$$((misses + m)); \
	done; \
	[ "$$misses" -eq 7 ] || { echo "replica-smoke: fleet planned $$misses scenarios, want 7 (6 plans + 1 estimate, each exactly once)"; exit 1; }; \
	/tmp/hanccr-serve -addr 127.0.0.1:19095 \
		-tail http://127.0.0.1:19091,http://127.0.0.1:19092,http://127.0.0.1:19093 & ptail=$$!; \
	trap "kill $$p1 $$p2 $$p3 $$pref $$plb $$ptail 2>/dev/null || true" EXIT; \
	warmed=0; got=none; \
	for i in $$(seq 1 100); do \
		stats=$$(curl -fsS http://127.0.0.1:19095/v1/stats 2>/dev/null || true); \
		got=$$(echo "$$stats" | sed -n 's/.*"store":{[^}]*"loads":\([0-9]*\).*/\1/p'); \
		if [ "$$got" = "7" ]; then warmed=1; break; fi; \
		sleep 0.1; \
	done; \
	[ $$warmed -eq 1 ] || { echo "replica-smoke: -tail follower loaded $$got of the fleet's 7 distinct plans"; exit 1; }; \
	echo "$$stats" | grep -q '"cache":{[^}]*"entries":7[,}]' \
		|| { echo "replica-smoke: -tail follower does not hold the 7 absorbed plans: $$stats"; exit 1; }; \
	echo "$$stats" | grep -q '"cache":{[^}]*"misses":0[,}]' \
		|| { echo "replica-smoke: -tail follower counted planner misses for absorbed records: $$stats"; exit 1; }; \
	echo "replica-smoke: byte-identity + dedupe + tail OK, killing replica 1"; \
	kill -TERM $$p1; wait $$p1 || true; \
	: > /tmp/hanccr-lb-out2.txt; : > /tmp/hanccr-ref-out2.txt; \
	for seed in 1 2 3 4 5 6; do \
		body="{\"family\":\"genome\",\"tasks\":50,\"procs\":5,\"seed\":$$seed}"; \
		curl -fsS -X POST -d "$$body" http://127.0.0.1:19090/v1/plan >> /tmp/hanccr-lb-out2.txt; \
		curl -fsS -X POST -d "$$body" http://127.0.0.1:19094/v1/plan >> /tmp/hanccr-ref-out2.txt; \
		echo >> /tmp/hanccr-lb-out2.txt; echo >> /tmp/hanccr-ref-out2.txt; \
	done; \
	diff /tmp/hanccr-lb-out2.txt /tmp/hanccr-ref-out2.txt \
		|| { echo "replica-smoke: post-kill responses differ from the serial reference"; exit 1; }; \
	curl -fsS http://127.0.0.1:19090/healthz | grep -q '"status":"ok"' \
		|| { echo "replica-smoke: router healthz broken after replica kill"; exit 1; }; \
	echo "replica-smoke: OK"
