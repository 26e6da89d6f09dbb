.PHONY: all build test faults-smoke profile-smoke telemetry-smoke engine-smoke sched-smoke resume-smoke monitor-smoke cli-smoke digest-smoke alloc-smoke bench-json bench-json-fast bench-gate ci clean

all: build

build:
	dune build @all

test:
	dune runtest

# End-to-end smoke of the stress campaign: must exit 0 with every
# campaign check passing (grep fails the target on any [FAIL] line).
faults-smoke:
	dune exec bin/repro.exe -- faults --seed 42 --standard bluetooth | tee /tmp/faults-smoke.out
	! grep -q '\[FAIL\]' /tmp/faults-smoke.out

# The profiling workload must exercise every instrumented layer: at
# least 8 distinct span rows between the summary header and the
# counters section, including one from each of rfchain, sigkit,
# metrics, calibration and attacks.
profile-smoke:
	dune exec bin/repro.exe -- profile --seed 42 --standard bluetooth | tee /tmp/profile-smoke.out
	test $$(sed -n '/^span /,/^counters/p' /tmp/profile-smoke.out | grep -c '^[a-z]') -ge 8
	grep -q '^sdm\.' /tmp/profile-smoke.out
	grep -q '^fft\.' /tmp/profile-smoke.out
	grep -q '^measure\.' /tmp/profile-smoke.out
	grep -q '^calibrate\.' /tmp/profile-smoke.out
	grep -q '^attack\.' /tmp/profile-smoke.out

# Telemetry must observe without perturbing: the instrumented run's
# figure output must be byte-identical to the plain run, the golden
# calibration numbers must not drift, and the emitted Chrome trace
# must contain complete ("ph":"X") span events.
telemetry-smoke:
	dune exec bin/repro.exe -- fig8 --seed 42 --standard bluetooth > /tmp/fig8-plain.out
	grep -q 'SNR(mod) 43.1 dB, SNR(rx) 41.8 dB, SFDR 35.0 dB' /tmp/fig8-plain.out
	dune exec bin/repro.exe -- fig8 --seed 42 --standard bluetooth \
	  --metrics --trace fig8.trace.json > /tmp/fig8-metrics.out
	head -n $$(wc -l < /tmp/fig8-plain.out) /tmp/fig8-metrics.out | cmp - /tmp/fig8-plain.out
	grep -q '"traceEvents"' fig8.trace.json
	grep -q '"ph":"X"' fig8.trace.json

# The evaluation engine must not perturb results: the same figure run
# on the Domains backend (and with the cache disabled) must be
# byte-identical to the sequential cached run.  fig10 rides along so a
# spectral (periodogram-heavy) workload crosses the pool too — its
# workspace arenas are domain-local and must not leak state between
# lanes.
engine-smoke:
	dune exec bin/repro.exe -- fig7 --fast --seed 42 --standard bluetooth --jobs 1 > /tmp/fig7-jobs1.out
	dune exec bin/repro.exe -- fig7 --fast --seed 42 --standard bluetooth --jobs 2 > /tmp/fig7-jobs2.out
	cmp /tmp/fig7-jobs1.out /tmp/fig7-jobs2.out
	dune exec bin/repro.exe -- fig7 --fast --seed 42 --standard bluetooth --jobs 4 --no-cache > /tmp/fig7-jobs4.out
	cmp /tmp/fig7-jobs1.out /tmp/fig7-jobs4.out
	dune exec bin/repro.exe -- fig10 --seed 42 --standard bluetooth --jobs 1 > /tmp/fig10-jobs1.out
	dune exec bin/repro.exe -- fig10 --seed 42 --standard bluetooth --jobs 4 > /tmp/fig10-jobs4.out
	cmp /tmp/fig10-jobs1.out /tmp/fig10-jobs4.out

# The sharded work-stealing scheduler must be invisible in the
# results: a full campaign report (JSON, covering the grid cells, flip
# probes and demos) must be byte-identical across the whole jobs
# sweep, including the 8-lane oversubscribed case, and fig7 must match
# at --jobs 8 (engine-smoke covers 1/2/4).
sched-smoke: build
	./_build/default/bin/repro.exe fig7 --fast --seed 42 --standard bluetooth --jobs 1 > /tmp/sched-fig7-jobs1.out
	./_build/default/bin/repro.exe fig7 --fast --seed 42 --standard bluetooth --jobs 8 > /tmp/sched-fig7-jobs8.out
	cmp /tmp/sched-fig7-jobs1.out /tmp/sched-fig7-jobs8.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 1 > /tmp/sched-jobs1.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 2 > /tmp/sched-jobs2.out
	cmp /tmp/sched-jobs1.out /tmp/sched-jobs2.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 4 > /tmp/sched-jobs4.out
	cmp /tmp/sched-jobs1.out /tmp/sched-jobs4.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --jobs 8 > /tmp/sched-jobs8.out
	cmp /tmp/sched-jobs1.out /tmp/sched-jobs8.out
	# Interrupt mid-stream: with the whole grid in flight the report
	# must still cut at exactly the k-th delivered cell, byte-identically
	# at every lane count (exit 130 = interrupted, as SIGINT would be).
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --interrupt-after 7 --jobs 1 > /tmp/sched-int-jobs1.out; test $$? -eq 130
	grep -q '"completed_cells":7' /tmp/sched-int-jobs1.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --interrupt-after 7 --jobs 4 > /tmp/sched-int-jobs4.out; test $$? -eq 130
	cmp /tmp/sched-int-jobs1.out /tmp/sched-int-jobs4.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json --interrupt-after 7 --jobs 8 > /tmp/sched-int-jobs8.out; test $$? -eq 130
	cmp /tmp/sched-int-jobs1.out /tmp/sched-int-jobs8.out

# Crash-safe resume: journal a campaign to a checkpoint, SIGINT it
# mid-flight, resume from the journal, and require the resumed report
# to be byte-identical to an uninterrupted run.  The interrupted run
# may legitimately finish before the signal lands (exit 0); what must
# never happen is a corrupt journal or a drifted resumed report.
resume-smoke: build
	rm -f /tmp/resume.ckpt.jsonl
	dune exec bin/repro.exe -- faults --seed 42 --standard bluetooth --json > /tmp/resume-fresh.out
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json \
	  --checkpoint /tmp/resume.ckpt.jsonl > /tmp/resume-interrupted.out & \
	pid=$$!; sleep 1; kill -INT $$pid 2>/dev/null || true; \
	wait $$pid; status=$$?; test $$status -eq 130 -o $$status -eq 0
	grep -q '"type":"cell"' /tmp/resume.ckpt.jsonl
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --json \
	  --checkpoint /tmp/resume.ckpt.jsonl --resume > /tmp/resume-resumed.out
	cmp /tmp/resume-fresh.out /tmp/resume-resumed.out

# Live monitoring, end to end: run a monitored campaign, scrape
# /metrics and /healthz mid-flight, and require a valid OpenMetrics
# document (terminated by "# EOF") showing nonzero engine activity,
# a healthz liveness object, and a run manifest with the engine hash.
monitor-smoke: build
	rm -f /tmp/monitor-manifest.json /tmp/monitor-scrape.txt /tmp/monitor-healthz.json
	./_build/default/bin/repro.exe faults --seed 42 --standard bluetooth --jobs 2 \
	  --metrics-port 9187 --manifest /tmp/monitor-manifest.json \
	  > /tmp/monitor-smoke.out 2>/tmp/monitor-smoke.err & \
	pid=$$!; \
	for i in $$(seq 1 50); do \
	  curl -sf http://127.0.0.1:9187/metrics > /tmp/monitor-scrape.txt 2>/dev/null \
	    && grep -q '^repro_engine_evals_total [1-9]' /tmp/monitor-scrape.txt && break; \
	  sleep 0.2; \
	done; \
	curl -sf http://127.0.0.1:9187/healthz > /tmp/monitor-healthz.json; \
	wait $$pid
	grep -q '^# EOF' /tmp/monitor-scrape.txt
	grep -q '^repro_engine_evals_total [1-9]' /tmp/monitor-scrape.txt
	grep -q '^repro_campaign_cells_planned' /tmp/monitor-scrape.txt
	grep -q '"status":"ok"' /tmp/monitor-healthz.json
	grep -q '"engine_hash":"[0-9a-f]' /tmp/monitor-manifest.json
	grep -q 'heartbeat' /tmp/monitor-smoke.err

# CLI error paths must fail fast with the documented status.  Run
# under timeout so a reintroduced keep-alive (module-load domain,
# at_exit hook) turns into a visible kill, and require exit 2 for
# parse errors — NOT cmdliner's default 124, which collides with
# timeout(1)'s kill status and made parse errors read as hangs
# (ROADMAP: "CLI parse-error hang").
#
# The common flags must parse on every subcommand.  Each probe appends
# `--jobs 0`, which the engine set-up refuses with its own message and
# exit 2 before any work starts; cmdliner only runs that set-up once it
# has accepted every other flag, so the message proves the flag under
# test was accepted (the empty probe covers `--jobs` itself).
CLI_SUBCOMMANDS := fig7 fig8 fig9 fig10 fig11 fig12 security compare ablations \
  calibrate lot onchip aging faults avalanche generality profile all

cli-smoke: build
	timeout 10 ./_build/default/bin/repro.exe nosuchcmd > /dev/null 2>&1; test $$? -eq 2
	timeout 10 ./_build/default/bin/repro.exe fig7 --no-such-flag > /dev/null 2>&1; test $$? -eq 2
	timeout 10 ./_build/default/bin/repro.exe --help > /dev/null 2>&1; test $$? -eq 0
	for cmd in $(CLI_SUBCOMMANDS); do \
	  for flag in --fast "--seed 7" "--standard bluetooth" ""; do \
	    timeout 10 ./_build/default/bin/repro.exe $$cmd $$flag --jobs 0 > /dev/null 2> /tmp/cli-smoke.err; \
	    status=$$?; \
	    if [ $$status -ne 2 ] || ! grep -q -e '--jobs must be >= 1' /tmp/cli-smoke.err; then \
	      echo "repro $$cmd does not accept '$$flag --jobs' (exit $$status):"; \
	      cat /tmp/cli-smoke.err; exit 1; \
	    fi; \
	  done; \
	done

# The whole reproduction, pinned: `repro all --fast` must print exactly
# the committed digest at --jobs 1 and at --jobs 2.  This covers the
# fan-outs that sched-smoke does not run, such as the lot study's die
# calibrations over map_jobs.  A deliberate output change updates
# REPRO_DIGEST in the same commit.
REPRO_DIGEST := bc49309000a4f2d39da93c2404c50673

digest-smoke: build
	./_build/default/bin/repro.exe all --fast --jobs 1 > /tmp/digest-jobs1.out
	test "$$(md5sum < /tmp/digest-jobs1.out | cut -d' ' -f1)" = "$(REPRO_DIGEST)"
	./_build/default/bin/repro.exe all --fast --jobs 2 > /tmp/digest-jobs2.out
	test "$$(md5sum < /tmp/digest-jobs2.out | cut -d' ' -f1)" = "$(REPRO_DIGEST)"

# Steady-state allocation contract (DESIGN §15): the arena-converted
# kernels carry absolute minor-words budgets (lib/benchkit alloc
# budgets) checked by the bench harness itself — a reintroduced
# per-stage copy of even one record buffer fails the run with exit 4.
# Budgets are baseline-free; the --compare leg additionally holds the
# converted kernels to the tightened slack against BENCH_4.json.
alloc-smoke: build
	./_build/default/bench/main.exe --quick --fast --only engine: \
	  --json --out /tmp/alloc-smoke.json --compare BENCH_4.json \
	  > /tmp/alloc-smoke.out 2>&1 || { cat /tmp/alloc-smoke.out; exit 1; }
	grep -q 'budgets: PASS' /tmp/alloc-smoke.out
	grep -q 'gate: PASS' /tmp/alloc-smoke.out

# Perf trajectory: re-measure the Bechamel kernels and rewrite
# BENCH_4.json (full quota; commit the result).  The -fast variant is
# what CI runs on every push — shorter quota, same JSON schema.
bench-json:
	dune exec bench/main.exe -- --quick --json

bench-json-fast:
	dune exec bench/main.exe -- --quick --fast --json

# Regression gate: re-measure at the fast quota and compare against the
# committed baseline; any kernel blowing past its tolerance (or a
# kernel that silently stopped running) fails the build (exit 4).
bench-gate:
	dune exec bench/main.exe -- --quick --fast --json \
	  --out /tmp/bench-gate.json --compare BENCH_4.json

ci: build test cli-smoke faults-smoke profile-smoke telemetry-smoke engine-smoke sched-smoke resume-smoke digest-smoke monitor-smoke alloc-smoke bench-gate

clean:
	dune clean
