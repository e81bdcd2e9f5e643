#!/usr/bin/env bash
# Full gate: release build, the whole workspace's test suites (tier-1's
# `cargo test -q` runs the root package's four integration files only),
# static analysis (clippy + netshare-lint), rustdoc at -D warnings, the
# sanitize-feature test suite, and an orchestrator
# fault-injection smoke test through the CLI (which also checks the
# --metrics-out telemetry snapshot), then the serve, scale, serve-chaos,
# nsbench, avx2 and experiments gates below.
#
#   scripts/ci.sh        # run the full gate
#   scripts/ci.sh chaos  # fault-matrix smoke through the CLI
#   scripts/ci.sh serve  # netshared daemon + pull-client serving smoke
#   scripts/ci.sh scale  # coordinator + worker processes + kill-worker, attempt faults, gc
#   scripts/ci.sh serve-chaos  # wire-fault matrix + daemon kill -9 + kill-coord
#   scripts/ci.sh nsbench  # the frozen benchmark's unit tests + smoke run
#   scripts/ci.sh avx2     # the bit-equality gates release-built, then for 256-bit vectors
#   scripts/ci.sh experiments  # Figs. 1-3 re-run and reproduced; EXPERIMENTS.md rendered from results/
#   scripts/ci.sh loc      # non-test lines per crate under crates/ and shims/
#
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Chaos smoke matrix: drive every injectable fault class through the real
# CLI. Every invocation runs under an outer `timeout`, so a hang bug fails
# the gate instead of wedging it. A fault must either leave the output
# byte-identical to the clean baseline (recovered transparently) or exit
# nonzero — and never leave a corrupt checkpoint outside quarantine.
if [[ "${1:-}" == "chaos" ]]; then
  cargo build --release -p netshare -p netshared -p orchestrator
  cli=target/release/netshare_cli
  cd_dir="$(mktemp -d)"
  trap 'rm -rf "$cd_dir"' EXIT
  {
    echo "start_ms,duration_ms,src_ip,dst_ip,src_port,dst_port,proto,packets,bytes,label,attack_type"
    awk 'BEGIN { for (i = 0; i < 240; i++)
      printf "%d.000,%d.000,10.0.%d.%d,192.168.%d.%d,%d,%d,%d,%d,%d,,\n",
        i * 25, 10 + i % 40, i % 4, 1 + i % 200, i % 8, 1 + (i * 7) % 200,
        1024 + (i * 13) % 40000, (i % 2) ? 443 : 80, (i % 3) ? 6 : 17,
        1 + i % 9, 400 + (i * 37) % 9000 }'
  } > "$cd_dir/real.csv"
  common=(--chunks 2 --steps 12 --seed 7)

  timeout 300 "$cli" synth-flows "$cd_dir/real.csv" "$cd_dir/plain.csv" "${common[@]}"

  # Transparently-recovered classes: retried attempt, byte-identical output,
  # matching retry evidence in the JSONL stream.
  for case in "panic:chunk-1:panic:1:injected panic" \
              "legacy:chunk-1:1:injected transient fault" \
              "slow-io:chunk-1:slow-io:1:injected fault (persist)"; do
    name="${case%%:*}"; rest="${case#*:}"
    spec="${rest%:*}"; needle="${rest##*:}"
    NETSHARE_INJECT_FAULT="$spec" timeout 300 "$cli" synth-flows \
      "$cd_dir/real.csv" "$cd_dir/$name.csv" "${common[@]}" --ckpt-dir "$cd_dir/$name"
    cmp "$cd_dir/plain.csv" "$cd_dir/$name.csv"
    if [[ "$name" != "slow-io" ]]; then
      grep -q '"JobRetried"' "$cd_dir/$name/events.jsonl"
      grep -qF "$needle" "$cd_dir/$name/events.jsonl"
    fi
    echo "chaos[$name]: recovered, output identical"
  done

  # Hang: the watchdog must cancel the wedged attempt; the retry succeeds.
  NETSHARE_INJECT_FAULT="chunk-1:hang:1" timeout 300 "$cli" synth-flows \
    "$cd_dir/real.csv" "$cd_dir/hang.csv" "${common[@]}" \
    --ckpt-dir "$cd_dir/hang" --max-job-secs 10
  cmp "$cd_dir/plain.csv" "$cd_dir/hang.csv"
  grep -q '"WatchdogCancelled"' "$cd_dir/hang/events.jsonl"
  grep -q 'injected hang' "$cd_dir/hang/events.jsonl"
  echo "chaos[hang]: watchdog cancelled, retry recovered, output identical"

  # Checkpoint corruption: the faulted run rots bytes at rest, so it still
  # succeeds; the resume must quarantine the damage, retrain the job, and
  # still match the baseline. Nothing corrupt may survive unquarantined.
  for class in corrupt-flip corrupt-truncate corrupt-torn; do
    NETSHARE_INJECT_FAULT="chunk-1:$class:1" timeout 300 "$cli" synth-flows \
      "$cd_dir/real.csv" "$cd_dir/$class.csv" "${common[@]}" --ckpt-dir "$cd_dir/$class"
    cmp "$cd_dir/plain.csv" "$cd_dir/$class.csv"
    timeout 300 "$cli" synth-flows \
      "$cd_dir/real.csv" "$cd_dir/$class-resumed.csv" "${common[@]}" \
      --ckpt-dir "$cd_dir/$class" --resume
    cmp "$cd_dir/plain.csv" "$cd_dir/$class-resumed.csv"
    grep -q '"CheckpointQuarantined"' "$cd_dir/$class/events.jsonl"
    find "$cd_dir/$class" -name '*.quarantine' | grep -q . \
      || { echo "chaos[$class]: no quarantine file left behind" >&2; exit 1; }
    stray="$(find "$cd_dir/$class" -name '*.tmp.*' ! -name '*.quarantine')"
    [[ -z "$stray" ]] || { echo "chaos[$class]: unquarantined fragments: $stray" >&2; exit 1; }
    echo "chaos[$class]: quarantined on resume, output identical"
  done

  # The public dictionary as a stored object of the run directory
  # (OPERATIONS.md §2): a resume over the finished corrupt-flip directory
  # loads it and trains none; with one byte of the object flipped the
  # resume quarantines it, trains again and still writes the baseline's
  # bytes; `gc` counts the ref as live, so a resume after it loads again.
  cf="$cd_dir/corrupt-flip"
  resume_cf() {
    timeout 300 "$cli" synth-flows "$cd_dir/real.csv" "$cd_dir/codec-$1.csv" \
      "${common[@]}" --ckpt-dir "$cf" --resume --metrics-out "$cd_dir/codec-$1.json"
    cmp "$cd_dir/plain.csv" "$cd_dir/codec-$1.csv"
  }
  resume_cf loaded
  grep -q '"netshare.codec.loaded":1' "$cd_dir/codec-loaded.json"
  if grep -q '"netshare.codec.trained"' "$cd_dir/codec-loaded.json"; then
    echo "chaos[codec]: a resume over a complete directory trained a dictionary" >&2; exit 1
  fi
  digest="$(grep -o '"digest":[0-9]*' "$cf/codec.json" | cut -d: -f2)"
  codec_obj="$cf/objects/$(printf '%016x' "$digest").json"
  quarantined="$(find "$cf" -name '*.quarantine' | wc -l)"
  # JSON text holds no NUL, so this always changes the byte.
  printf '\0' | dd of="$codec_obj" bs=1 seek=100 conv=notrunc status=none
  resume_cf refit
  grep -q '"netshare.codec.load_misses":1' "$cd_dir/codec-refit.json"
  grep -q '"netshare.codec.trained":1' "$cd_dir/codec-refit.json"
  [[ "$(find "$cf" -name '*.quarantine' | wc -l)" == "$((quarantined + 1))" ]] \
    || { echo "chaos[codec]: the damaged codec object was not quarantined" >&2; exit 1; }
  timeout 60 "$cli" gc "$cf" > /dev/null
  [[ -e "$codec_obj" ]] || { echo "chaos[codec]: gc removed the codec object" >&2; exit 1; }
  resume_cf after-gc
  grep -q '"netshare.codec.loaded":1' "$cd_dir/codec-after-gc.json"
  echo "chaos[codec]: loaded on resume, refitted after a flipped byte, kept by gc, output identical"

  # Stored forms (DESIGN.md §9): every job object the manifest names is a
  # checkpoint in its bit-pattern form, 8 hex digits per weight. The float
  # text of earlier builds took ~20 bytes per weight, so a re-derived
  # float-text form fails both the format grep and the size bound.
  objs="$(grep -o '"file": *"objects/[0-9a-f]*\.json"' "$cf/manifest.json" | grep -o 'objects/[^"]*')"
  [[ -n "$objs" ]] || { echo "chaos[stored-form]: the manifest names no job object" >&2; exit 1; }
  for obj in $objs; do
    grep -q '^{"gen":{"format":2,' "$cf/$obj" \
      || { echo "chaos[stored-form]: $obj is not a format-2 checkpoint" >&2; exit 1; }
    size="$(stat -c %s "$cf/$obj")"
    (( size < 800000 )) || { echo "chaos[stored-form]: $obj is $size bytes" >&2; exit 1; }
  done
  # A bundle in the float-text form (no `format`: format 1) is refused
  # at load: exit 1, and the message names the format it found.
  cat > "$cd_dir/old-bundle.json" <<'JSON'
{"name":"old","cfg":{"meta_spec":{"segments":[{"Continuous":{"dim":1}}],"temperature":0.5},"record_spec":{"segments":[{"Continuous":{"dim":1}}],"temperature":0.5},"max_len":1,"z_meta_dim":1,"z_record_dim":1,"meta_hidden":[],"rnn_hidden":1,"head_hidden":[],"disc_hidden":[],"aux_hidden":[],"lr":0.001,"n_critic":3,"weight_clip":0.1,"batch_size":32,"gen_steps":400,"aux_weight":1.0,"loss":"Bce","seed":7,"dp":null},"artifact":{"gen":{"tensors":[{"rows":1,"cols":1,"data":[0.5]}]},"disc":{"tensors":[]},"rng_state":[1,2,3,4],"dp_rate":null}}
JSON
  rc=0
  timeout 60 target/release/netshared --artifact "$cd_dir/old-bundle.json" \
    < /dev/null 2> "$cd_dir/old-bundle.err" || rc=$?
  [[ "$rc" == 1 ]] || { echo "chaos[stored-form]: old bundle: expected exit 1, got $rc" >&2; exit 1; }
  grep -q 'checkpoint format 1; this build reads format 2' "$cd_dir/old-bundle.err" \
    || { echo "chaos[stored-form]: refusal does not name the format:" >&2; cat "$cd_dir/old-bundle.err" >&2; exit 1; }
  echo "chaos[stored-form]: job objects are format-2 checkpoints, a float-text bundle is refused"

  # Divergence: the sentinel rolls the poisoned job back and the run
  # completes (exit 0). The trajectory legitimately differs from the
  # baseline (decayed LR), so only the event is asserted.
  NETSHARE_INJECT_DIVERGENCE="chunk-1:3" timeout 300 "$cli" synth-flows \
    "$cd_dir/real.csv" "$cd_dir/diverged.csv" "${common[@]}" --ckpt-dir "$cd_dir/diverge"
  grep -q '"SentinelRollback"' "$cd_dir/diverge/events.jsonl"
  echo "chaos[divergence]: rolled back, run completed"

  # Malformed spec: every binary that reads the plan exits 2 with the one
  # grammar (DESIGN.md §9) before it trains, dials, binds or writes
  # anything. `chunk-1:reset` puts a wire class after a job.
  grammar='wire classes: torn-frame | reset | stall | garbage-bytes'
  for spec in chunk-1:bogus chunk-1:reset; do
    for bin in synth-flows pull coord netshared netshare_worker; do
      case "$bin" in
        synth-flows) cmd=("$cli" synth-flows "$cd_dir/real.csv" "$cd_dir/malformed.csv" "${common[@]}") ;;
        pull) cmd=("$cli" pull 127.0.0.1:9 demo --count 1) ;;
        coord) cmd=("$cli" coord "$cd_dir/malformed-run" --workers-procs 0) ;;
        netshared) cmd=(target/release/netshared --demo demo:7 --addr 127.0.0.1:0) ;;
        netshare_worker) cmd=(target/release/netshare_worker 127.0.0.1:9) ;;
      esac
      rc=0
      NETSHARE_INJECT_FAULT="$spec" timeout 60 "${cmd[@]}" < /dev/null \
        > /dev/null 2> "$cd_dir/malformed.err" || rc=$?
      [[ "$rc" == 2 ]] || { echo "chaos[malformed $bin $spec]: expected exit 2, got $rc" >&2; exit 1; }
      grep -qF "invalid fault spec \`$spec\`" "$cd_dir/malformed.err" && grep -qF "$grammar" "$cd_dir/malformed.err" \
        || { echo "chaos[malformed $bin $spec]: grammar not named:" >&2; cat "$cd_dir/malformed.err" >&2; exit 1; }
    done
  done
  [[ ! -e "$cd_dir/malformed.csv" && ! -e "$cd_dir/malformed-run" ]] \
    || { echo "chaos[malformed]: output written" >&2; exit 1; }
  echo "chaos[malformed]: every binary rejected both specs with exit 2 and the grammar"

  echo "chaos matrix: all fault classes recovered or failed loudly"
  exit 0
fi

# Serving smoke: boot the real daemon on an ephemeral port, stream
# concurrent pulls through the real client, and drive the graceful drain
# over the stdin FIFO (the SIGTERM stand-in the daemon documents). Every
# process runs under an outer `timeout`, so a wedged handshake fails the
# gate instead of hanging it. Two same-count pulls of the same artifact
# must agree byte-for-byte (each SUBSCRIBE rebuilds its generator
# deterministically from the bundle), and the shutdown metrics snapshot
# must carry serving evidence with zero drops.
if [[ "${1:-}" == "serve" ]]; then
  cargo build --release -p netshared -p netshare
  daemon=target/release/netshared
  cli=target/release/netshare_cli
  sv="$(mktemp -d)"
  trap 'rm -rf "$sv"' EXIT
  mkfifo "$sv/ctl"
  timeout 120 "$daemon" --demo demo:7 --demo tiny:3 \
    --addr-file "$sv/addr" --capacity-bytes 8192 --drain-secs 1 \
    --metrics-out "$sv/metrics.json" < "$sv/ctl" &
  daemon_pid=$!
  # Hold the FIFO's write end open so the daemon idles on stdin; this
  # also unblocks its open-for-read.
  exec 9> "$sv/ctl"

  for _ in $(seq 100); do [[ -s "$sv/addr" ]] && break; sleep 0.1; done
  [[ -s "$sv/addr" ]] || { echo "serve: daemon never wrote --addr-file" >&2; exit 1; }
  addr="$(cat "$sv/addr")"
  # $daemon_pid is the `timeout` wrapper; the daemon is its only child.
  pid="$(pgrep -P "$daemon_pid")"
  # Threads and open fds of the idle daemon, before any pull; every
  # session and stream after this must give both back.
  soak() { echo "$(awk '/^Threads:/ {print $2}' "/proc/$pid/status") $(ls "/proc/$pid/fd" | wc -l)"; }
  idle="$(soak)"

  timeout 60 "$cli" pull "$addr" demo --count 64 --credit 2 --out "$sv/a.jsonl" &
  pull_a=$!
  timeout 60 "$cli" pull "$addr" demo --count 64 --credit 8 --out "$sv/b.jsonl" &
  pull_b=$!
  timeout 60 "$cli" pull "$addr" tiny --count 16 --out "$sv/c.jsonl"
  wait "$pull_a"
  wait "$pull_b"

  [[ "$(wc -l < "$sv/a.jsonl")" == 64 ]] || { echo "serve: pull a short" >&2; exit 1; }
  [[ "$(wc -l < "$sv/b.jsonl")" == 64 ]] || { echo "serve: pull b short" >&2; exit 1; }
  [[ "$(wc -l < "$sv/c.jsonl")" == 16 ]] || { echo "serve: pull c short" >&2; exit 1; }
  cmp "$sv/a.jsonl" "$sv/b.jsonl"

  # Unknown artifacts must fail the client loudly (exit 1) while the
  # daemon keeps serving.
  rc=0
  timeout 60 "$cli" pull "$addr" no-such-artifact --count 1 \
    2> "$sv/unknown.err" || rc=$?
  [[ "$rc" == 1 ]] || { echo "serve: expected exit 1 for unknown artifact, got $rc" >&2; exit 1; }
  grep -q 'unknown-artifact' "$sv/unknown.err"

  # Connection churn: a finished session must give its thread's stack
  # back. 2000 bare connects used to leave 2000 stacks mapped (and the
  # daemon aborted near 32 700, vm.max_map_count).
  host="${addr%:*}"; port="${addr##*:}"
  for i in $(seq 2000); do
    exec 3<> "/dev/tcp/$host/$port"
    exec 3>&-
    # The accept loop polls every 20 ms and a full accept queue drops
    # SYNs (a 1 s stall each): let it catch up every 64 connects.
    (( i % 64 )) || sleep 0.05
  done
  maps="$(wc -l < "/proc/$pid/maps")"
  [[ "$maps" -lt 400 ]] \
    || { echo "serve: $maps mappings after 2000 connections" >&2; exit 1; }
  timeout 60 "$cli" pull "$addr" tiny --count 16 --out "$sv/d.jsonl"
  cmp "$sv/c.jsonl" "$sv/d.jsonl"
  # Sessions end a little after their clients do: poll up to 5 s.
  for _ in $(seq 50); do [[ "$(soak)" == "$idle" ]] && break; sleep 0.1; done
  [[ "$(soak)" == "$idle" ]] \
    || { echo "serve: threads/fds $(soak) after the pulls, $idle idle" >&2; exit 1; }

  echo shutdown >&9
  exec 9>&-
  wait "$daemon_pid"

  grep -q '"netshared.subscribes":4' "$sv/metrics.json"
  grep -Eq '"netshared\.frames\.sent":[1-9]' "$sv/metrics.json"
  grep -Eq '"netshared\.errors\.sent":[1-9]' "$sv/metrics.json"
  if grep -Eq '"netshared\.stream\.drops":[1-9]' "$sv/metrics.json"; then
    echo "serve: frames dropped during a clean run" >&2
    exit 1
  fi
  echo "serve smoke: concurrent pulls agreed, 2000 connections left $maps mappings and threads/fds at $idle, drain clean, metrics complete"
  exit 0
fi

# Scale-out smoke: a coordinator with two real worker processes, one of
# which is SIGKILL'd mid-run by the kill-worker chaos class. The faulted
# run must still exit 0, record the requeue, and leave a content store
# bitwise-identical to an uninterrupted baseline. Then `gc` must remove a
# planted unreferenced object and nothing else, and a --resume rerun must
# satisfy every job from the manifest without re-executing anything.
if [[ "${1:-}" == "scale" ]]; then
  cargo build --release -p netshare -p orchestrator
  cli=target/release/netshare_cli
  sc="$(mktemp -d)"
  trap 'rm -rf "$sc"' EXIT
  common=(--chunks 3 --steps 64 --seed 7 --workers-procs 2)

  timeout 120 "$cli" coord "$sc/base" "${common[@]}" > "$sc/base.digests"

  NETSHARE_INJECT_FAULT="chunk-2:kill-worker:1" timeout 120 \
    "$cli" coord "$sc/faulted" "${common[@]}" > "$sc/faulted.digests"
  cmp "$sc/base.digests" "$sc/faulted.digests"
  grep -q '"WorkerLost"' "$sc/faulted/events.jsonl"
  grep -q '"JobRetried"' "$sc/faulted/events.jsonl"
  # The recovered store is the baseline store, object for object.
  diff <(cd "$sc/base/objects" && sha256sum *.json | sort) \
       <(cd "$sc/faulted/objects" && sha256sum *.json | sort)
  echo "scale[kill-worker]: worker died, jobs requeued, artifacts identical"

  # Attempt faults through the coordinator: the worker reports the failed
  # attempt, the job machine requeues it (the same retry policy the pool
  # runs, `ci.sh chaos`), and the digests match the baseline.
  for case in "panic:injected panic" "transient:injected transient fault"; do
    class="${case%%:*}"; needle="${case#*:}"
    NETSHARE_INJECT_FAULT="chunk-1:$class:1" timeout 120 \
      "$cli" coord "$sc/$class" "${common[@]}" > "$sc/$class.digests"
    cmp "$sc/base.digests" "$sc/$class.digests"
    grep '"JobRetried"' "$sc/$class/events.jsonl" | grep -qF "$needle" \
      || { echo "scale[$class]: no JobRetried carrying \"$needle\"" >&2; exit 1; }
    echo "scale[$class]: attempt retried through the coordinator, digests identical"
  done

  # GC: a planted unreferenced object is removed; every live object stays.
  live_count="$(ls "$sc/base/objects" | wc -l)"
  junk="$sc/base/objects/00000000deadbeef.json"
  echo '{"planted":"junk"}' > "$junk"
  timeout 60 "$cli" gc "$sc/base" > "$sc/gc.out"
  grep -q '0x00000000deadbeef' "$sc/gc.out"
  [[ ! -e "$junk" ]] || { echo "scale[gc]: junk object survived" >&2; exit 1; }
  [[ "$(ls "$sc/base/objects" | wc -l)" == "$live_count" ]] \
    || { echo "scale[gc]: live object count changed" >&2; exit 1; }
  echo "scale[gc]: removed exactly the unreferenced object"

  # Resume: the manifest satisfies the whole plan, no worker executes.
  timeout 120 "$cli" coord "$sc/base" "${common[@]}" --resume \
    > "$sc/resume.digests" 2> "$sc/resume.err"
  cmp "$sc/base.digests" "$sc/resume.digests"
  grep -q '4 resumed' "$sc/resume.err"
  echo "scale[resume]: all jobs satisfied from the manifest"

  echo "scale smoke: kill-worker recovery, gc, and resume all clean"
  exit 0
fi

# Serving chaos: every socket-layer fault class through the real client,
# a daemon SIGKILL'd mid-stream and restarted on the same port, and a
# coordinator SIGKILL'd mid-completion then resumed from its journal.
# Every recovery must be *bitwise* — same bytes as the undisturbed run —
# and every process runs under an outer `timeout` so a wedged retry loop
# fails the gate instead of hanging it.
if [[ "${1:-}" == "serve-chaos" ]]; then
  cargo build --release -p netshared -p netshare -p orchestrator
  daemon=target/release/netshared
  cli=target/release/netshare_cli
  sx="$(mktemp -d)"
  daemon_pid=""
  trap 'rm -rf "$sx"; [[ -n "$daemon_pid" ]] && kill -9 "$daemon_pid" 2>/dev/null; true' EXIT

  # --- wire-fault matrix ---------------------------------------------
  # The client process arms the plan's wire faults; the daemon stays healthy.
  # Each class must leave the pulled bytes identical to the clean pull:
  # write-path faults (torn-frame, reset) kill the session and force a
  # reconnect, garbage-bytes corrupts a read into a retryable error, and
  # stall merely delays. A retry budget absorbs them all.
  # The daemon's shutdown metrics must show that the mid-stream resume
  # below started from a recorded boundary, not from sample 0. The stdin
  # FIFO is how it is told to shut down and write them (as in `serve`);
  # if this script dies, the FIFO closes with it.
  mkfifo "$sx/ctl"
  timeout 300 "$daemon" --demo demo:7 \
    --addr-file "$sx/addr" --capacity-bytes 4096 --drain-secs 1 \
    --metrics-out "$sx/metrics.json" < "$sx/ctl" &
  daemon_pid=$!
  exec 9> "$sx/ctl"
  for _ in $(seq 100); do [[ -s "$sx/addr" ]] && break; sleep 0.1; done
  [[ -s "$sx/addr" ]] || { echo "serve-chaos: daemon never wrote --addr-file" >&2; exit 1; }
  addr="$(cat "$sx/addr")"

  timeout 60 "$cli" pull "$addr" demo --count 128 --credit 2 --out "$sx/clean.jsonl"
  for class in torn-frame stall reset garbage-bytes; do
    NETSHARE_INJECT_FAULT="$class:1;seed=11" timeout 120 "$cli" pull "$addr" demo \
      --count 128 --credit 2 --retries 8 --backoff-ms 20 \
      --out "$sx/$class.jsonl" 2> "$sx/$class.err"
    cmp "$sx/clean.jsonl" "$sx/$class.jsonl"
    if [[ "$class" != "stall" ]]; then
      grep -Eq '[1-9][0-9]* reconnects' "$sx/$class.err" \
        || { echo "serve-chaos[$class]: no reconnect recorded" >&2; exit 1; }
    fi
    echo "serve-chaos[$class]: recovered, output identical"
  done

  # Each plan above strikes the first frame its side moves — the
  # handshake — so those reconnects re-subscribe from frame 0. The read
  # path takes stalls before garbage: four stalled reads (HELLO, three
  # DATA frames) put the corrupted frame mid-stream, and the reconnect is
  # a `from_seq` resume against this live daemon, whose seek index the
  # pulls above have filled.
  NETSHARE_INJECT_FAULT="stall:4;garbage-bytes:1;seed=11" timeout 120 "$cli" pull "$addr" demo \
    --count 128 --credit 2 --retries 8 --backoff-ms 20 \
    --out "$sx/mid-stream.jsonl" 2> "$sx/mid-stream.err"
  cmp "$sx/clean.jsonl" "$sx/mid-stream.jsonl"
  grep -Eq '[1-9][0-9]* reconnects' "$sx/mid-stream.err" \
    || { echo "serve-chaos[mid-stream]: no reconnect recorded" >&2; exit 1; }
  echo "serve-chaos[mid-stream]: resumed mid-stream, output identical"

  # Exhausted budget must be the *retryable* exit code (4), not a
  # generic failure: the caller's retry-later loop keys off it.
  rc=0
  NETSHARE_INJECT_FAULT="reset:20;seed=3" timeout 120 "$cli" pull "$addr" demo \
    --count 128 --retries 2 --backoff-ms 10 --out "$sx/exhausted.jsonl" \
    2> "$sx/exhausted.err" || rc=$?
  [[ "$rc" == 4 ]] || { echo "serve-chaos[exhausted]: expected exit 4, got $rc" >&2; exit 1; }
  grep -q 'retries exhausted' "$sx/exhausted.err"
  echo "serve-chaos[exhausted]: budget ran out with exit 4"

  echo shutdown >&9
  exec 9>&-
  wait "$daemon_pid"
  daemon_pid=""
  grep -Eq '"netshared\.resume\.seeks":[1-9]' "$sx/metrics.json" \
    || { echo "serve-chaos: no resume started from a recorded boundary" >&2; exit 1; }
  echo "serve-chaos[seek]: the live daemon's resume started from a recorded boundary"

  # --- daemon SIGKILL mid-stream -------------------------------------
  # A large pull against a small frame cap keeps the stream alive for
  # seconds; the daemon dies ungracefully underneath it and a fresh
  # daemon takes over the same port. The client's resumable SUBSCRIBE
  # (from_seq) must splice the two halves into exactly the bytes a
  # one-daemon pull produces.
  # 100k samples ≈ 2–3s of streaming in release builds, so the 0.5s kill
  # below lands mid-stream with wide margins on both sides. The
  # restarted daemon has recorded nothing: this resume replays from
  # sample 0, the path every seek is checked against.
  # `sleep 300 |` holds stdin open (the daemon exits on stdin EOF, so the
  # sleep doubles as a dead-man's switch); the daemon is last in the
  # pipeline, so $! is its real PID and SIGKILL lands on it directly.
  rm -f "$sx/addr"
  sleep 300 | "$daemon" --demo demo:7 \
    --addr-file "$sx/addr" --capacity-bytes 4096 --drain-secs 1 &
  daemon_pid=$!
  for _ in $(seq 100); do [[ -s "$sx/addr" ]] && break; sleep 0.1; done
  [[ -s "$sx/addr" ]] || { echo "serve-chaos: daemon never wrote --addr-file" >&2; exit 1; }
  addr="$(cat "$sx/addr")"
  timeout 120 "$cli" pull "$addr" demo --count 100000 --credit 2 \
    --out "$sx/whole.jsonl"
  timeout 120 "$cli" pull "$addr" demo --count 100000 --credit 2 \
    --retries 60 --backoff-ms 50 --out "$sx/spliced.jsonl" \
    2> "$sx/spliced.err" &
  pull_pid=$!
  sleep 0.5
  # No `wait` here: the daemon shares a pipeline job with its stdin
  # keep-alive, and waiting on its PID would block on the sleep too.
  # `kill -9` only queues the signal: the old listener stays bound until
  # the kernel reaps the process, so the new daemon's bind may see
  # `Address already in use` first — `Server::start` retries exactly
  # that error for a bounded window (OPERATIONS.md §8).
  kill -9 "$daemon_pid" 2>/dev/null || true
  sleep 300 | "$daemon" --demo demo:7 --addr "$addr" \
    --capacity-bytes 4096 --drain-secs 1 &
  daemon_pid=$!
  wait "$pull_pid" || { echo "serve-chaos[kill-daemon]: spliced pull failed" >&2; exit 1; }
  cmp "$sx/whole.jsonl" "$sx/spliced.jsonl"
  grep -Eq '[1-9][0-9]* reconnects' "$sx/spliced.err" \
    || { echo "serve-chaos[kill-daemon]: pull never reconnected" >&2; exit 1; }
  kill -9 "$daemon_pid" 2>/dev/null || true
  daemon_pid=""
  echo "serve-chaos[kill-daemon]: stream spliced across the restart, bytes identical"

  # --- coordinator SIGKILL + journal resume --------------------------
  # kill-coord aborts the coordinator after the journal records a
  # completion but before the manifest does — the worst-case torn state.
  # --resume must heal that job from the journal + content store without
  # re-executing it, finish the rest, and land bitwise on the baseline.
  common=(--chunks 3 --steps 64 --seed 7 --workers-procs 2)
  timeout 120 "$cli" coord "$sx/base" "${common[@]}" > "$sx/base.digests"

  rc=0
  NETSHARE_INJECT_FAULT="chunk-1:kill-coord:1" timeout 120 \
    "$cli" coord "$sx/torn" "${common[@]}" > /dev/null 2> "$sx/torn.err" || rc=$?
  [[ "$rc" != 0 ]] || { echo "serve-chaos[kill-coord]: coordinator survived its own kill" >&2; exit 1; }
  grep -q 'injected kill-coord' "$sx/torn.err"
  [[ -s "$sx/torn/journal.jsonl" ]] \
    || { echo "serve-chaos[kill-coord]: no journal left behind" >&2; exit 1; }

  timeout 120 "$cli" coord "$sx/torn" "${common[@]}" --resume \
    > "$sx/torn.digests" 2> "$sx/resume.err"
  cmp "$sx/base.digests" "$sx/torn.digests"
  grep -q '"JournalRecovered"' "$sx/torn/events.jsonl"
  # The healed store is the baseline store, object for object.
  diff <(cd "$sx/base/objects" && sha256sum *.json | sort) \
       <(cd "$sx/torn/objects" && sha256sum *.json | sort)
  echo "serve-chaos[kill-coord]: journal healed the torn completion, artifacts identical"

  echo "serve-chaos: wire-fault matrix, daemon restart, and coord resume all bitwise-clean"
  exit 0
fi

# The frozen end-to-end benchmark (benches/nsbench, a package outside the
# workspace that no gate above or below compiles): its unit tests, then
# every workload at a twentieth of its size with every correctness check
# on. Its `layers.rs` calls the product crates' public functions by name,
# so a product-API change that breaks it fails here and not in the
# benchmark driver.
if [[ "${1:-}" == "nsbench" ]]; then
  manifest=benches/nsbench/Cargo.toml
  cargo test -q --release --offline --manifest-path "$manifest"
  timeout 300 cargo run -q --release --offline --manifest-path "$manifest" -- smoke
  echo "nsbench: unit tests green, smoke run correct"
  exit 0
fi

# Experiments: the fast entries (Figs. 1-3) re-run release-built at the
# documented scale, in a scratch copy of results/ and EXPERIMENTS.md.
# Every field of each re-run results file must equal the committed one
# except the stamp's timing fields (the commit and each fit's CPU
# seconds), and re-rendering the report from the re-run must leave
# EXPERIMENTS.md as committed: no table cell and no claim status moved,
# in either direction. Then `experiments report` on the committed
# results must leave EXPERIMENTS.md byte-identical.
if [[ "${1:-}" == "experiments" ]]; then
  cargo build --release -p bench
  bin="$PWD/target/release/experiments"
  ex_dir="$(mktemp -d)"
  trap 'rm -rf "$ex_dir"' EXIT
  cp -r results EXPERIMENTS.md "$ex_dir"/
  (cd "$ex_dir" && NETSHARE_N=4000 NETSHARE_STEPS=400 "$bin" run fig1 fig2 fig3 && "$bin" report)
  timing='"(commit|cpu_s)":'
  for name in fig1 fig2 fig3; do
    if ! diff <(grep -Ev "$timing" "results/$name.json") <(grep -Ev "$timing" "$ex_dir/results/$name.json"); then
      echo "experiments: results/$name.json did not reproduce" >&2
      exit 1
    fi
  done
  if ! diff EXPERIMENTS.md "$ex_dir/EXPERIMENTS.md"; then
    echo "experiments: the re-run changed EXPERIMENTS.md (a table or a claim moved)" >&2
    exit 1
  fi
  "$bin" report
  git diff --exit-code EXPERIMENTS.md
  echo "experiments: Figs. 1-3 reproduce their committed results and claims; EXPERIMENTS.md is current"
  exit 0
fi

# Non-test lines per crate: every `.rs` file of the crate outside its
# `tests` directories, counted up to the file's first line that is exactly
# `#[cfg(test)]`. Every line count in ROADMAP.md and CHANGES.md is this
# count.
if [[ "${1:-}" == "loc" ]]; then
  total=0
  for dir in crates/* shims/*; do
    n=0
    while IFS= read -r -d '' f; do
      n=$(( n + $(awk '$0 == "#[cfg(test)]" { exit } { n++ } END { print n + 0 }' "$f") ))
    done < <(find "$dir" -name '*.rs' -not -path '*/tests/*' -print0)
    printf '%-22s %6d\n' "$dir" "$n"
    [[ "$dir" == crates/* ]] && total=$(( total + n ))
  done
  printf '%-22s %6d\n' "crates/ total" "$total"
  exit 0
fi

# The determinism contract across hosts: the GEMM kernels lay their vector
# lanes across output columns, so no output element's operations depend on
# the vector width. The root package's `oracles` binary (the kernels'
# bit-equality oracles, the frozen-inference equivalence, the DP-SGD golden
# and the two state-machine simulators) and the four pinned trace digests
# run release-built (a debug build does not vectorise, so it cannot tell), at
# the default width and then rebuilt for 256-bit vectors in a target
# directory of its own. `+fma` stays off on purpose: a fused multiply-add
# rounds once where the contract rounds twice, so it changes bits by
# design. On a CPU without AVX2 the second half is skipped with a line
# saying so.
if [[ "${1:-}" == "avx2" ]]; then
  gates=(-p netshare-suite -p netshare --test oracles --test determinism)
  cargo test -q --release "${gates[@]}"
  echo "avx2: bit-equality gates pass release-built at the default width"
  if ! grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
    echo "avx2: skipped the 256-bit half, this CPU does not list avx2 in /proc/cpuinfo"
    exit 0
  fi
  CARGO_TARGET_DIR=target/avx2 RUSTFLAGS="-C target-feature=+avx2" \
    cargo test -q --release "${gates[@]}"
  echo "avx2: kernel oracles, pinned digests, inference equivalence and DP-SGD golden bit-equal at 256-bit width"
  exit 0
fi

# --workspace so member bins (netshare_cli, netshare-lint) are rebuilt
# too — the root package alone would leave them stale — and so every
# member's unit, integration and doc tests run, not the root package's
# four files.
cargo build --release --workspace
cargo test -q --workspace

# Static analysis gate: the workspace must be clippy-clean at -D warnings,
# with every `unsafe` block and `unsafe impl` carrying a `// SAFETY:`
# comment and every unsafe operation inside an `unsafe fn` in an explicit
# `unsafe {}` block; and deny-clean under the in-tree linter (its per-file
# rules and its lock-order, capability-graph and dp-taint-flow passes;
# exit 1 on any unwaived finding).
cargo clippy --workspace --all-targets -- -D warnings \
  -D clippy::undocumented_unsafe_blocks -D unsafe_op_in_unsafe_fn
# Built first, so the 10 s budget below times the lint and not a rebuild
# of the analyzer.
cargo build -q --release -p analyzer --bin netshare-lint
lint_start=$(date +%s)
# The text report lists every waived finding too: print it whole only
# when the lint fails, else just its closing summary line.
lint_out=$(target/release/netshare-lint) || {
  echo "$lint_out"
  exit 1
}
echo "${lint_out##*$'\n'}"
lint_elapsed=$(( $(date +%s) - lint_start ))
# Budget: the whole-workspace run must stay interactive-fast (<10s).
if [ "$lint_elapsed" -ge 10 ]; then
  echo "netshare-lint: took ${lint_elapsed}s (budget 10s)" >&2
  exit 1
fi
echo "netshare-lint: deny-clean in ${lint_elapsed}s"

# Documentation gate: rustdoc must build warning-free (broken intra-doc
# links, missing docs on public items per-crate lint settings).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
echo "cargo doc: warning-free"

# Runtime sanitizer gate: the feature-gated NaN/shape/grad-norm guards must
# build and their trip tests (layer attribution, hook delivery) must pass.
# The clippy line above builds default features only, so its two unsafe
# lints run again over the sanitize build.
cargo test -q -p nnet --features sanitize
cargo clippy -q -p nnet --features sanitize --all-targets -- \
  -D clippy::undocumented_unsafe_blocks -D unsafe_op_in_unsafe_fn

# Orchestrator smoke: inject one training-job fault through the CLI's
# NETSHARE_INJECT_FAULT hook. The run must retry the job and complete
# (exit 0), the retry must land in the JSONL event stream, and the output
# must be byte-identical to a fault-free run with the same seed. The
# faulted run also dumps the telemetry metrics snapshot, which must carry
# GEMM, loss, span, and retry evidence from the real run.
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
{
  echo "start_ms,duration_ms,src_ip,dst_ip,src_port,dst_port,proto,packets,bytes,label,attack_type"
  awk 'BEGIN { for (i = 0; i < 240; i++)
    printf "%d.000,%d.000,10.0.%d.%d,192.168.%d.%d,%d,%d,%d,%d,%d,,\n",
      i * 25, 10 + i % 40, i % 4, 1 + i % 200, i % 8, 1 + (i * 7) % 200,
      1024 + (i * 13) % 40000, (i % 2) ? 443 : 80, (i % 3) ? 6 : 17,
      1 + i % 9, 400 + (i * 37) % 9000 }'
} > "$smoke/real.csv"

cli=target/release/netshare_cli
"$cli" synth-flows "$smoke/real.csv" "$smoke/plain.csv" \
  --chunks 2 --steps 20 --seed 7
NETSHARE_INJECT_FAULT="chunk-1:1" "$cli" synth-flows "$smoke/real.csv" "$smoke/faulted.csv" \
  --chunks 2 --steps 20 --seed 7 --ckpt-dir "$smoke/run" --workers 2 \
  --metrics-out "$smoke/metrics.json"
cmp "$smoke/plain.csv" "$smoke/faulted.csv"
grep -q '"JobRetried"' "$smoke/run/events.jsonl"
grep -q '"Span"' "$smoke/run/events.jsonl"
for metric in '"gemm.calls"' '"train.d_loss"' '"train.g_loss"' '"orchestrator.retries":1'; do
  grep -q "$metric" "$smoke/metrics.json" \
    || { echo "missing $metric in metrics snapshot" >&2; exit 1; }
done
echo "orchestrator smoke: fault retried, output identical, telemetry snapshot complete"

# Serving, scale-out, and serving-chaos smokes ride on the release
# binaries built above (separate shells, so their EXIT traps don't
# clobber ours).
"$0" serve
"$0" scale
"$0" serve-chaos
"$0" nsbench
"$0" avx2
"$0" experiments
