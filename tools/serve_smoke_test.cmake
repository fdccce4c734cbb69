# ctest script: end-to-end smoke of the serving tools.
#   1. hullserved in stdin mode must answer every NDJSON line — good
#      requests with "ok" hulls, malformed lines with "error" — and
#      exit 0 at EOF. A trailing {"cmd":"statz"} line must be answered
#      with the service registry, whose counters (answered in stream
#      order, after every earlier response) reconcile exactly with the
#      session: 3 valid submissions out of 5 lines. Four lines with
#      out-of-range numbers or an infinite coordinate each get a
#      bad_request reject, and the line after them is still answered.
#   2. hullload over TCP against one shared hullserved (--port 0, its
#      port read from the "listening <port>" stdout line; cases 4 and 7
#      use it too) must complete a small closed-loop burst with every
#      request ok (exit 0 under --expect-all-ok) and emit a parseable
#      --json summary; with --scrape it must reconcile the server
#      registry against its own tally and write the diffed snapshot to
#      --scrape-out. hullload without a target, or given a flag it no
#      longer has, is a usage error (exit 2).
#   3-4. The streaming-session protocol, stdin and over TCP.
#   5-7. Request tracing: wire trace contexts round-trip (server ids
#      deterministic and monotonic per connection, client ids adopted
#      verbatim, malformed contexts answered per-message without
#      killing the stream), tracez serves span trees, the shutdown
#      exporters dump valid JSON, --obs-capacity 0 disables cleanly,
#      and a TCP burst reconciles the obs span identities and prints
#      the slowest span trees via hullload --trace-slowest.
#
# Invoked as:
#   cmake -DHULLSERVED=<bin> -DHULLLOAD=<bin> -DWORK_DIR=<scratch>
#         -P serve_smoke_test.cmake
#   8. Cluster: hullrouter fronting 3 hullserved backends (--port 0,
#      ports read from the "listening <port>" stdout contract). Wire
#      admin drain/undrain + fleet statz over stdin mode, with a
#      request the backends refuse leaving forwards == submitted; the
#      same malformed lines answered byte for byte alike by a stdin
#      hullserved and a stdin hullrouter; then over TCP a batch burst
#      and a streaming-session burst through the router (both with
#      exact router-aware scrape reconciliation), a backend killed
#      mid-fleet with the next burst still all-ok (io retries +
#      markdown visible in the router's shutdown statz dump), and a
#      direct multi-target hullload --endpoints run.
#   9. Clients that hang up: five connections each send 200 pipelined
#      lines to a hullserved, then to a hullrouter in front of it, and
#      close without reading. Each front end must live through its
#      failed writes and answer a fresh connection.
if(NOT HULLSERVED OR NOT HULLLOAD OR NOT HULLROUTER OR NOT WORK_DIR)
  message(FATAL_ERROR
          "need -DHULLSERVED=... -DHULLLOAD=... -DHULLROUTER=... "
          "-DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# --- Case 1: stdin session with good, inline, and broken lines --------
file(WRITE "${WORK_DIR}/requests.ndjson"
"{\"id\":1,\"n\":64,\"workload\":\"disk\",\"seed\":7}
{\"id\":2,\"points\":[[0,0],[1,2],[2,0],[3,3]]}
this is not json
{\"id\":4,\"n\":0}
{\"id\":5,\"n\":128,\"workload\":\"circle\",\"seed\":3,\"edge_above\":true}
{\"cmd\":\"statz\"}
")
execute_process(
  COMMAND "${HULLSERVED}" --quiet --shards 1 --threads 2
  INPUT_FILE "${WORK_DIR}/requests.ndjson"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hullserved: expected exit 0, got ${rc}\n${err}")
endif()
string(REGEX MATCHALL "\"status\":\"ok\"" oks "${out}")
list(LENGTH oks n_ok)
if(NOT n_ok EQUAL 3)
  message(FATAL_ERROR "hullserved: expected 3 ok responses, got ${n_ok}:\n${out}")
endif()
string(REGEX MATCHALL "\"error\":" errs "${out}")
list(LENGTH errs n_err)
if(NOT n_err EQUAL 2)
  message(FATAL_ERROR "hullserved: expected 2 error lines, got ${n_err}:\n${out}")
endif()
# The circle request asked for the per-point edge-above array; the full
# n=64 disk request did not (response stays small by default).
if(NOT out MATCHES "\"edge_above\":\\[")
  message(FATAL_ERROR "hullserved: edge_above array missing:\n${out}")
endif()
# The statz line is answered in stream order, so its counters include
# exactly this session: 3 valid submissions (the 2 broken lines never
# reach the service).
if(NOT out MATCHES "\"statz\":")
  message(FATAL_ERROR "hullserved: statz answer missing:\n${out}")
endif()
if(NOT out MATCHES "\"iph_serve_submitted_total\":3")
  message(FATAL_ERROR
          "hullserved: statz submitted counter should be exactly 3:\n${out}")
endif()
if(NOT out MATCHES "\"iph_serve_completed_total\":3")
  message(FATAL_ERROR
          "hullserved: statz completed counter should be exactly 3:\n${out}")
endif()

# Lines that once killed or fooled the server (a negative or huge
# generated n, an alpha the simulator cannot run, an infinite
# coordinate) each get a bad_request reject, and the stream keeps
# answering: the valid line after them is "ok".
file(WRITE "${WORK_DIR}/crash_lines.ndjson"
"{\"n\":-5}
{\"n\":1e12}
{\"n\":2,\"alpha\":-3,\"backend\":\"pram\"}
{\"points\":[[0,0],[1e400,1],[2,0]]}
{\"id\":9,\"points\":[[0,0],[1,2],[2,0]]}
")
execute_process(
  COMMAND "${HULLSERVED}" --quiet --shards 1 --threads 2
  INPUT_FILE "${WORK_DIR}/crash_lines.ndjson"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hullserved (crash lines): expected exit 0, got ${rc}\n${err}")
endif()
string(REGEX MATCHALL "\"reject\":\"bad_request\"" rejects "${out}")
list(LENGTH rejects n_rejects)
if(NOT n_rejects EQUAL 4)
  message(FATAL_ERROR
          "hullserved: expected 4 bad_request rejects, got ${n_rejects}:\n${out}")
endif()
if(NOT out MATCHES "\"id\":9,\"status\":\"ok\"")
  message(FATAL_ERROR
          "hullserved: the valid line after the crash lines was not ok:\n${out}")
endif()

# Waits for a backgrounded tool's "listening <port>" stdout line in
# `outfile` and sets `resultvar` to the port.
function(iph_wait_listening outfile what resultvar)
  set(port "")
  foreach(try RANGE 0 100)
    if(EXISTS "${outfile}")
      file(READ "${outfile}" _out)
      if(_out MATCHES "listening ([0-9]+)")
        set(port "${CMAKE_MATCH_1}")
        break()
      endif()
    endif()
    execute_process(COMMAND sh -c "sleep 0.1")
  endforeach()
  if(port STREQUAL "")
    message(FATAL_ERROR "serve smoke: ${what} never printed its port")
  endif()
  set(${resultvar} "${port}" PARENT_SCOPE)
endfunction()

# --- Case 2: hullload closed-loop burst over TCP ----------------------
# The server cases 2, 4 and 7 share. A watchdog stops it if this script
# dies before case 7 does.
execute_process(
  COMMAND sh -c "'${HULLSERVED}' --quiet --port 0 --shards 1 --threads 2 \
                 </dev/null >'${WORK_DIR}/srv.out' 2>/dev/null & srv=$!; \
                 echo $srv > '${WORK_DIR}/srv.pid'; \
                 (while kill -0 $PPID && kill -0 $srv; do sleep 1; done; \
                  kill -INT $srv) </dev/null >/dev/null 2>&1 &"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serve smoke: failed to launch the shared server")
endif()
iph_wait_listening("${WORK_DIR}/srv.out" "the shared server" SRV_PORT)

# No target, or a flag hullload no longer has: usage errors.
execute_process(
  COMMAND "${HULLLOAD}" --clients 2 --requests 8 --n 64
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "hullload without a target: expected exit 2, got ${rc}")
endif()
execute_process(
  COMMAND "${HULLLOAD}" --connect "127.0.0.1:${SRV_PORT}" --shards 1
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "hullload --shards: expected exit 2, got ${rc}")
endif()

execute_process(
  COMMAND "${HULLLOAD}" --connect "127.0.0.1:${SRV_PORT}"
          --clients 2 --requests 8 --n 64
          --expect-all-ok --json
          --scrape --scrape-out "${WORK_DIR}/statz.json"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hullload: expected exit 0, got ${rc}\n${err}")
endif()
if(NOT out MATCHES "\"ok\":16")
  message(FATAL_ERROR "hullload: json summary lacks ok:16\n${out}")
endif()
if(NOT err MATCHES "e2e ms")
  message(FATAL_ERROR "hullload: human summary missing\n${err}")
endif()
# --scrape reconciled (exit 0 already proves it) and recorded the
# server-side view in the summary and the snapshot file.
if(NOT out MATCHES "\"scrape_ok\":true")
  message(FATAL_ERROR "hullload: json summary lacks scrape_ok:true\n${out}")
endif()
if(NOT EXISTS "${WORK_DIR}/statz.json")
  message(FATAL_ERROR "hullload: --scrape-out wrote no snapshot file")
endif()
file(READ "${WORK_DIR}/statz.json" statz)
if(NOT statz MATCHES "iph-stats-v1")
  message(FATAL_ERROR "hullload: snapshot lacks iph-stats-v1 schema:\n${statz}")
endif()

# --- Case 3: stdin streaming session: open -> append -> delta -> close
# Good appends (inline and generated), an unknown sid, and a malformed
# session line must all be answered in stream order without killing the
# stream; the trailing statz must carry fully-settled session counters.
file(WRITE "${WORK_DIR}/session.ndjson"
"{\"cmd\":\"session_open\",\"backend\":\"native\"}
{\"cmd\":\"session_append\",\"sid\":1,\"points\":[[0,0],[1,2],[2,0]]}
{\"cmd\":\"session_append\",\"sid\":1,\"n\":16,\"workload\":\"disk\",\"seed\":5}
{\"cmd\":\"session_append\",\"sid\":99,\"points\":[[0,0]]}
{\"cmd\":\"session_append\",\"points\":[[0,0]]}
{\"cmd\":\"session_close\",\"sid\":1}
{\"cmd\":\"statz\"}
")
execute_process(
  COMMAND "${HULLSERVED}" --quiet --shards 1 --threads 2
  INPUT_FILE "${WORK_DIR}/session.ndjson"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "session smoke: expected exit 0, got ${rc}\n${err}")
endif()
# open + two appends + close answer ok; the deltas carry inserted
# vertices; the close answer carries the end-of-life summary.
string(REGEX MATCHALL "\"status\":\"ok\"" oks "${out}")
list(LENGTH oks n_ok)
if(NOT n_ok EQUAL 4)
  message(FATAL_ERROR
          "session smoke: expected 4 ok responses, got ${n_ok}:\n${out}")
endif()
if(NOT out MATCHES "\"sid\":1")
  message(FATAL_ERROR "session smoke: open did not issue sid 1:\n${out}")
endif()
if(NOT out MATCHES "\"delta\":\\[\\[")
  message(FATAL_ERROR "session smoke: no non-empty delta:\n${out}")
endif()
if(NOT out MATCHES "\"status\":\"unknown\"")
  message(FATAL_ERROR
          "session smoke: unknown-sid append not flagged:\n${out}")
endif()
string(REGEX MATCHALL "\"error\":" errs "${out}")
list(LENGTH errs n_err)
if(NOT n_err EQUAL 1)
  message(FATAL_ERROR
          "session smoke: expected 1 error line (missing sid), got "
          "${n_err}:\n${out}")
endif()
if(NOT out MATCHES "\"summary\":")
  message(FATAL_ERROR "session smoke: close summary missing:\n${out}")
endif()
# statz answers in stream order: exactly this session's counters.
if(NOT out MATCHES "\"iph_session_opened_total\":1")
  message(FATAL_ERROR "session smoke: statz opened != 1:\n${out}")
endif()
if(NOT out MATCHES "\"iph_session_closed_total\":1")
  message(FATAL_ERROR "session smoke: statz closed != 1:\n${out}")
endif()
if(NOT out MATCHES "\"iph_session_appends_total\":2")
  message(FATAL_ERROR "session smoke: statz appends != 2:\n${out}")
endif()
if(NOT out MATCHES "\"iph_session_live_sessions\":0")
  message(FATAL_ERROR "session smoke: live-sessions gauge not 0:\n${out}")
endif()
if(NOT out MATCHES "\"iph_session_aux_cells\":0")
  message(FATAL_ERROR "session smoke: aux-cells gauge not 0:\n${out}")
endif()

# --- Case 4: hullload --stream over TCP with scrape reconciliation ----
# Every session identity is exact. The client's append latency is the
# socket round trip, which a sub-0.1 ms server-side append cannot match
# (28-96x under ASan), so the median ratio is off, as in case 8's
# streaming burst.
execute_process(
  COMMAND "${HULLLOAD}" --stream --connect "127.0.0.1:${SRV_PORT}"
          --clients 2 --requests 6
          --append-points 8 --n 64
          --expect-all-ok --json --scrape-tol 0
          --scrape --scrape-out "${WORK_DIR}/stream_statz.json"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "hullload --stream: expected exit 0, got ${rc}\n${err}")
endif()
if(NOT out MATCHES "\"stream\":true")
  message(FATAL_ERROR "hullload --stream: json lacks stream:true\n${out}")
endif()
if(NOT out MATCHES "\"ok\":12")
  message(FATAL_ERROR "hullload --stream: json lacks ok:12\n${out}")
endif()
if(NOT out MATCHES "\"scrape_ok\":true")
  message(FATAL_ERROR
          "hullload --stream: json lacks scrape_ok:true\n${out}")
endif()
if(NOT err MATCHES "delta ms")
  message(FATAL_ERROR
          "hullload --stream: human summary missing delta latency\n${err}")
endif()
if(NOT EXISTS "${WORK_DIR}/stream_statz.json")
  message(FATAL_ERROR "hullload --stream: --scrape-out wrote no snapshot")
endif()
file(READ "${WORK_DIR}/stream_statz.json" statz)
if(NOT statz MATCHES "iph_session_appends_total")
  message(FATAL_ERROR
          "hullload --stream: snapshot lacks session counters:\n${statz}")
endif()

# --- Case 5: trace round trip over stdin + tracez + exporter dumps ----
# Request 1 has no trace: the server stamps (conn 1) << 32 | 1 =
# "100000001". Request 2 brings its own context, adopted VERBATIM.
# Request 3's trace is malformed: answered per-message with an error,
# stream survives. Request 4 is stamped with the NEXT server id
# ("100000002" — errors never consume a sequence number). The tracez
# command then serves the retained span trees, and --trace-out /
# --tracez-out dump the flight recorder on shutdown. --trace arms the
# shard's PRAM phase recorder (the default backend is pram), so every
# request's exec span carries its phase spans into the Chrome dump.
file(WRITE "${WORK_DIR}/trace.ndjson"
"{\"id\":1,\"n\":64,\"workload\":\"disk\",\"seed\":7}
{\"id\":2,\"n\":64,\"workload\":\"disk\",\"seed\":8,\"trace\":{\"id\":\"abc123\",\"span\":\"7\"}}
{\"id\":3,\"n\":64,\"workload\":\"disk\",\"seed\":9,\"trace\":{\"id\":\"zzz\"}}
{\"id\":4,\"n\":64,\"workload\":\"disk\",\"seed\":10}
{\"cmd\":\"tracez\",\"order\":\"slowest\"}
")
execute_process(
  COMMAND "${HULLSERVED}" --quiet --shards 1 --threads 2 --trace
          --trace-out "${WORK_DIR}/chrome_trace.json"
          --tracez-out "${WORK_DIR}/tracez.json"
  INPUT_FILE "${WORK_DIR}/trace.ndjson"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trace smoke: expected exit 0, got ${rc}\n${err}")
endif()
if(NOT out MATCHES "\"trace\":{\"id\":\"100000001\"}")
  message(FATAL_ERROR
          "trace smoke: first server-stamped id not 100000001:\n${out}")
endif()
if(NOT out MATCHES "\"trace\":{\"id\":\"abc123\",\"span\":\"7\"}")
  message(FATAL_ERROR
          "trace smoke: client trace context not adopted verbatim:\n${out}")
endif()
if(NOT out MATCHES "must be a 1-16 digit hex string")
  message(FATAL_ERROR
          "trace smoke: malformed trace not answered per-message:\n${out}")
endif()
if(NOT out MATCHES "\"trace\":{\"id\":\"100000002\"}")
  message(FATAL_ERROR
          "trace smoke: ids not monotonic after mid-stream error:\n${out}")
endif()
# Count ok RESPONSES by their hull payload — the tracez answer repeats
# "status":"ok" inside every retained span tree, so that string
# over-counts here.
string(REGEX MATCHALL "\"hull\":" oks "${out}")
list(LENGTH oks n_ok)
if(NOT n_ok EQUAL 3)
  message(FATAL_ERROR "trace smoke: expected 3 ok responses, got ${n_ok}:\n${out}")
endif()
# tracez answers in stream order with the three completed span trees.
if(NOT out MATCHES "\"tracez\":{")
  message(FATAL_ERROR "trace smoke: tracez answer missing:\n${out}")
endif()
if(NOT out MATCHES "\"published\":3")
  message(FATAL_ERROR "trace smoke: tracez published != 3:\n${out}")
endif()
if(NOT out MATCHES "\"name\":\"queue_wait\"")
  message(FATAL_ERROR "trace smoke: span tree lacks queue_wait:\n${out}")
endif()
# Shutdown dumps: the Chrome export and the machine-readable tracez doc.
if(NOT EXISTS "${WORK_DIR}/chrome_trace.json")
  message(FATAL_ERROR "trace smoke: --trace-out wrote nothing")
endif()
file(READ "${WORK_DIR}/chrome_trace.json" chrome)
if(NOT chrome MATCHES "\"traceEvents\": ?\\[" OR
   NOT chrome MATCHES "\"ph\": ?\"X\"")
  message(FATAL_ERROR "trace smoke: Chrome trace malformed:\n${chrome}")
endif()
if(NOT chrome MATCHES "\"source\": ?\"pram_phase\"")
  message(FATAL_ERROR
          "trace smoke: --trace linked no PRAM phase spans:\n${chrome}")
endif()
if(NOT EXISTS "${WORK_DIR}/tracez.json")
  message(FATAL_ERROR "trace smoke: --tracez-out wrote nothing")
endif()
file(READ "${WORK_DIR}/tracez.json" tracez)
if(NOT tracez MATCHES "\"traces\": ?\\[" OR
   NOT tracez MATCHES "\"exemplars\": ?\\[")
  message(FATAL_ERROR "trace smoke: tracez dump malformed:\n${tracez}")
endif()

# --- Case 6: tracing disabled answers tracez with an error ------------
file(WRITE "${WORK_DIR}/notrace.ndjson"
"{\"id\":1,\"n\":64,\"workload\":\"disk\",\"seed\":7}
{\"cmd\":\"tracez\"}
")
execute_process(
  COMMAND "${HULLSERVED}" --quiet --shards 1 --threads 2
          --obs-capacity 0
  INPUT_FILE "${WORK_DIR}/notrace.ndjson"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "notrace smoke: expected exit 0, got ${rc}\n${err}")
endif()
if(out MATCHES "\"trace\":{")
  message(FATAL_ERROR
          "notrace smoke: responses carry trace ids with obs off:\n${out}")
endif()
if(NOT out MATCHES "tracing disabled")
  message(FATAL_ERROR
          "notrace smoke: tracez should error when disabled:\n${out}")
endif()

# --- Case 7: TCP round trip: hullload --scrape --trace-slowest --------
# The shared server takes a small burst over TCP; hullload then
# scrapes (reconciling the obs span identities along the serve
# counters) and fetches the slowest span trees over the wire.
execute_process(
  COMMAND "${HULLLOAD}" --connect "127.0.0.1:${SRV_PORT}"
          --clients 2 --requests 10 --n 64
          --expect-all-ok --scrape --trace-slowest 3
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
execute_process(
  COMMAND sh -c "kill -INT $(cat '${WORK_DIR}/srv.pid') 2>/dev/null; true")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "tcp trace smoke: hullload expected exit 0, got ${rc}\n${err}")
endif()
# The scrape reconciled (exit 0) WITH the obs identities in play, and
# the slowest span trees printed with the fixed span names.
if(NOT err MATCHES "hullload tracez: ")
  message(FATAL_ERROR "tcp trace smoke: no tracez summary\n${err}")
endif()
if(NOT err MATCHES "3 slowest")
  message(FATAL_ERROR "tcp trace smoke: wrong slowest count\n${err}")
endif()
if(NOT err MATCHES "queue_wait" OR NOT err MATCHES "exec")
  message(FATAL_ERROR "tcp trace smoke: span tree incomplete\n${err}")
endif()

# --- Case 8: cluster — hullrouter fronting three hullserved backends --
# Three real backends on ephemeral ports, exercising the "listening
# <port>" stdout contract end to end, then the router in both modes.
foreach(i RANGE 0 2)
  execute_process(
    COMMAND sh -c "'${HULLSERVED}' --quiet --port 0 \
                   --shards 1 --threads 2 \
                   </dev/null >'${WORK_DIR}/be${i}.out' 2>/dev/null \
                   & echo $! > '${WORK_DIR}/be${i}.pid'"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cluster smoke: failed to launch backend ${i}")
  endif()
endforeach()
iph_wait_listening("${WORK_DIR}/be0.out" "backend 0" BE0_PORT)
iph_wait_listening("${WORK_DIR}/be1.out" "backend 1" BE1_PORT)
iph_wait_listening("${WORK_DIR}/be2.out" "backend 2" BE2_PORT)
set(ENDPOINTS
    "127.0.0.1:${BE0_PORT},127.0.0.1:${BE1_PORT},127.0.0.1:${BE2_PORT}")

# 8a. stdin mode: requests forward to the fleet, wire admin drain /
# undrain answers inline, and the trailing statz is the merged fleet
# roll-up in stream order — exactly this session's 3 forwards. The
# fourth request reaches a backend, which refuses its "n" before
# submitting it: no forward is counted for that answer.
file(WRITE "${WORK_DIR}/router.ndjson"
"{\"id\":1,\"n\":64,\"workload\":\"disk\",\"seed\":7}
{\"cmd\":\"markdown\",\"shard\":1}
{\"id\":2,\"n\":64,\"workload\":\"disk\",\"seed\":8}
{\"id\":4,\"n\":-5}
{\"id\":3,\"n\":64,\"workload\":\"circle\",\"seed\":9}
{\"cmd\":\"markup\",\"shard\":1}
{\"cmd\":\"statz\"}
")
execute_process(
  COMMAND "${HULLROUTER}" --quiet --endpoints "${ENDPOINTS}" --probe-ms 0
  INPUT_FILE "${WORK_DIR}/router.ndjson"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cluster smoke: router stdin expected exit 0, got "
                      "${rc}\n${err}")
endif()
string(REGEX MATCHALL "\"hull\":" hulls "${out}")
list(LENGTH hulls n_hull)
if(NOT n_hull EQUAL 3)
  message(FATAL_ERROR
          "cluster smoke: expected 3 forwarded hulls, got ${n_hull}:\n${out}")
endif()
if(NOT out MATCHES "\"reject\":\"bad_request\"")
  message(FATAL_ERROR
          "cluster smoke: the refused request was not answered:\n${out}")
endif()
if(NOT out MATCHES "\"up\":false" OR NOT out MATCHES "\"up\":true")
  message(FATAL_ERROR
          "cluster smoke: admin drain/undrain replies missing:\n${out}")
endif()
if(NOT out MATCHES "\"statz\":")
  message(FATAL_ERROR "cluster smoke: fleet statz answer missing:\n${out}")
endif()
# Exact roll-up: the router forwarded 3 requests and the MERGED backend
# registries agree — fleet submitted == completed == router forwards.
if(NOT out MATCHES "\"iph_router_forwards_total\":3")
  message(FATAL_ERROR "cluster smoke: router forwards != 3:\n${out}")
endif()
if(NOT out MATCHES "\"iph_serve_submitted_total\":3" OR
   NOT out MATCHES "\"iph_serve_completed_total\":3")
  message(FATAL_ERROR
          "cluster smoke: merged fleet counters not exact:\n${out}")
endif()
# Counter keys embed their label sets with escaped quotes; the dotted
# regex segments stand for {cause=\" ... \"}":
if(NOT out MATCHES "iph_router_markdowns_total.cause=..admin....:1")
  message(FATAL_ERROR "cluster smoke: admin markdown not counted:\n${out}")
endif()
if(NOT out MATCHES "iph_router_markups_total.cause=..admin....:1")
  message(FATAL_ERROR "cluster smoke: admin markup not counted:\n${out}")
endif()
if(NOT out MATCHES "\"backends\":3")
  message(FATAL_ERROR "cluster smoke: fleet summary missing:\n${out}")
endif()

# 8b. One answer per malformed line, whichever front end reads it: the
# same file sent to a stdin hullserved and to a stdin hullrouter over
# the live fleet must come back byte for byte the same. Both refuse the
# first nineteen lines in the shared envelope decoder
# (cluster/protocol.h; the six after the first two are numbers JSON does
# not allow, the two after them 50,000 nested brackets, past the
# parser's depth limit); the router forwards the last two, and a
# backend's reject comes back verbatim.
string(REPEAT "[" 50000 deep_open)
string(REPEAT "]" 50000 deep_close)
file(WRITE "${WORK_DIR}/malformed.ndjson"
"this is not json
[1,2]
{\"id\":0x10,\"n\":3}
{\"id\":+7,\"n\":3}
{\"id\":7,\"n\":3,\"v\":-infinity}
{\"id\":01,\"n\":3}
{\"id\":1.,\"n\":3}
{\"points\":[[.5,0]]}
{\"id\":1,\"x\":${deep_open}${deep_close}}
{\"id\":1,\"points\":${deep_open}${deep_close}}
{\"v\":1e300,\"n\":3}
{\"cmd\":5,\"n\":3}
{\"cmd\":\"frobnicate\"}
{\"cmd\":\"tracez\",\"limit\":-1}
{\"cmd\":\"tracez\",\"order\":\"fastest\"}
{\"cmd\":\"session_append\",\"points\":[[0,0]]}
{\"cmd\":\"session_close\",\"sid\":2.5}
{\"id\":-5,\"n\":3}
{\"id\":1,\"n\":3,\"deadline_ms\":-4}
{\"id\":2,\"n\":-5}
{\"id\":3,\"points\":[[0,0],[1e400,1],[2,0]]}
")
execute_process(
  COMMAND "${HULLSERVED}" --quiet --shards 1 --threads 2
  INPUT_FILE "${WORK_DIR}/malformed.ndjson"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE served
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cluster smoke: hullserved (malformed lines) expected "
                      "exit 0, got ${rc}\n${err}")
endif()
execute_process(
  COMMAND "${HULLROUTER}" --quiet --endpoints "${ENDPOINTS}" --probe-ms 0
  INPUT_FILE "${WORK_DIR}/malformed.ndjson"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE routed
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cluster smoke: hullrouter (malformed lines) expected "
                      "exit 0, got ${rc}\n${err}")
endif()
if(NOT served STREQUAL routed)
  message(FATAL_ERROR
          "cluster smoke: hullserved and hullrouter answer malformed lines "
          "differently:\n--- hullserved\n${served}--- hullrouter\n${routed}")
endif()
string(REGEX MATCHALL "\"error\":" errs "${served}")
list(LENGTH errs n_err)
string(REGEX MATCHALL "\"reject\":\"bad_json\"" bad_json "${served}")
list(LENGTH bad_json n_bad_json)
if(NOT n_err EQUAL 21 OR NOT n_bad_json EQUAL 9 OR
   served MATCHES "\"status\":")
  message(FATAL_ERROR
          "cluster smoke: expected 21 error lines, 9 of them bad_json, and "
          "no status:\n${served}")
endif()
string(REGEX MATCHALL "nesting too deep" deep "${served}")
list(LENGTH deep n_deep)
if(NOT n_deep EQUAL 2)
  message(FATAL_ERROR
          "cluster smoke: the two deep lines were not refused for their "
          "depth:\n${served}")
endif()

# 8c. TCP: router on an ephemeral port fronting the same fleet.
execute_process(
  COMMAND sh -c "'${HULLROUTER}' --port 0 --endpoints '${ENDPOINTS}' \
                 --retries 2 --probe-ms 0 \
                 --statz-out '${WORK_DIR}/router_statz.json' \
                 --tracez-out '${WORK_DIR}/router_tracez.json' \
                 </dev/null >'${WORK_DIR}/router.out' \
                 2>'${WORK_DIR}/router.err' \
                 & echo $! > '${WORK_DIR}/router.pid'"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "cluster smoke: failed to launch router")
endif()
iph_wait_listening("${WORK_DIR}/router.out" "router" ROUTER_PORT)

# Batch burst through the router: every request ok and the router-aware
# scrape reconciles router forwards against the merged fleet exactly.
execute_process(
  COMMAND "${HULLLOAD}" --connect "127.0.0.1:${ROUTER_PORT}"
          --clients 2 --requests 10 --n 64
          --expect-all-ok --json --scrape
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "cluster smoke: batch via router expected exit 0, got ${rc}\n"
          "${out}\n${err}")
endif()
if(NOT out MATCHES "\"ok\":20" OR NOT out MATCHES "\"scrape_ok\":true")
  message(FATAL_ERROR "cluster smoke: batch summary wrong:\n${out}")
endif()
if(NOT err MATCHES "router forwards")
  message(FATAL_ERROR
          "cluster smoke: scrape not router-aware:\n${err}")
endif()

# Streaming sessions through the router: affinity pins each session,
# sids are router-minted, and the fleet scrape still reconciles the
# session identities exactly. Latency via two hops is not a protocol
# property — disable the median sanity ratio, keep exactness.
execute_process(
  COMMAND "${HULLLOAD}" --stream --connect "127.0.0.1:${ROUTER_PORT}"
          --clients 2 --requests 6 --append-points 8 --n 64
          --expect-all-ok --json --scrape --scrape-tol 0
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "cluster smoke: stream via router expected exit 0, got ${rc}\n"
          "${out}\n${err}")
endif()
if(NOT out MATCHES "\"ok\":12" OR NOT out MATCHES "\"scrape_ok\":true")
  message(FATAL_ERROR "cluster smoke: stream summary wrong:\n${out}")
endif()

# Kill backend 0 outright (no drain). The next burst must still come
# back all-ok — requests that home on the dead shard are retried on
# siblings — and the fleet scrape stays exact because the router serves
# its cached snapshot of the dead backend.
execute_process(
  COMMAND sh -c "kill -9 $(cat '${WORK_DIR}/be0.pid') 2>/dev/null; true")
execute_process(COMMAND sh -c "sleep 0.3")
execute_process(
  COMMAND "${HULLLOAD}" --connect "127.0.0.1:${ROUTER_PORT}"
          --clients 2 --requests 10 --n 64
          --expect-all-ok --json --scrape
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "cluster smoke: burst after backend kill expected exit 0, got "
          "${rc}\n${out}\n${err}")
endif()
if(NOT out MATCHES "\"ok\":20" OR NOT out MATCHES "\"scrape_ok\":true")
  message(FATAL_ERROR
          "cluster smoke: post-kill summary wrong:\n${out}")
endif()

# Direct multi-target mode: hullload fans its clients over the two
# surviving backends without the router and reconciles the summed diff.
execute_process(
  COMMAND "${HULLLOAD}"
          --endpoints "127.0.0.1:${BE1_PORT},127.0.0.1:${BE2_PORT}"
          --clients 2 --requests 6 --n 64
          --expect-all-ok --json --scrape
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "cluster smoke: --endpoints run expected exit 0, got ${rc}\n"
          "${out}\n${err}")
endif()
if(NOT out MATCHES "\"ok\":12" OR NOT out MATCHES "\"scrape_ok\":true")
  message(FATAL_ERROR
          "cluster smoke: --endpoints summary wrong:\n${out}")
endif()

# Graceful router shutdown dumps statz/tracez; the io retries and the
# io markdown from the killed backend must be on the counters.
execute_process(
  COMMAND sh -c "kill -INT $(cat '${WORK_DIR}/router.pid') 2>/dev/null; true")
# The router writes statz first, tracez second — wait for both.
set(router_statz "")
set(router_tracez "")
foreach(try RANGE 0 100)
  if(EXISTS "${WORK_DIR}/router_statz.json" AND
     EXISTS "${WORK_DIR}/router_tracez.json")
    file(READ "${WORK_DIR}/router_statz.json" router_statz)
    file(READ "${WORK_DIR}/router_tracez.json" router_tracez)
    if(router_statz MATCHES "iph_router_forwards_total" AND
       router_tracez MATCHES "tracez")
      break()
    endif()
  endif()
  execute_process(COMMAND sh -c "sleep 0.1")
endforeach()
if(NOT router_statz MATCHES "iph_router_forwards_total")
  message(FATAL_ERROR
          "cluster smoke: router --statz-out dump missing or empty")
endif()
if(NOT router_statz MATCHES "iph_router_retries_total.reason=..io....: ?[1-9]")
  message(FATAL_ERROR
          "cluster smoke: io retries not counted:\n${router_statz}")
endif()
if(NOT router_statz MATCHES
   "iph_router_markdowns_total.cause=..io....: ?[1-9]")
  message(FATAL_ERROR
          "cluster smoke: io markdown not counted:\n${router_statz}")
endif()
if(NOT router_tracez MATCHES "\"traces\": ?\\[")
  message(FATAL_ERROR
          "cluster smoke: router tracez dump malformed:\n${router_tracez}")
endif()
foreach(i RANGE 0 2)
  execute_process(
    COMMAND sh -c "kill -INT $(cat '${WORK_DIR}/be${i}.pid') 2>/dev/null; true")
endforeach()

# --- Case 9: clients that hang up ------------------------------------
set(burst "")
foreach(i RANGE 1 200)
  string(APPEND burst "{\"id\":${i},\"n\":4096,\"seed\":${i}}\n")
endforeach()
file(WRITE "${WORK_DIR}/hangup.ndjson" "${burst}")
execute_process(
  COMMAND sh -c "'${HULLSERVED}' --quiet --port 0 --threads 1 \
                 --backend native </dev/null >'${WORK_DIR}/hu_be.out' \
                 2>/dev/null & echo $! > '${WORK_DIR}/hu_be.pid'"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hang-up smoke: failed to launch hullserved")
endif()
iph_wait_listening("${WORK_DIR}/hu_be.out" "the hang-up backend" HU_BE_PORT)
execute_process(
  COMMAND sh -c "'${HULLROUTER}' --quiet --port 0 --probe-ms 0 \
                 --endpoints 127.0.0.1:${HU_BE_PORT} </dev/null \
                 >'${WORK_DIR}/hu_rt.out' 2>/dev/null \
                 & echo $! > '${WORK_DIR}/hu_rt.pid'"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "hang-up smoke: failed to launch hullrouter")
endif()
iph_wait_listening("${WORK_DIR}/hu_rt.out" "the hang-up router" HU_RT_PORT)

# Five connections write the burst and close unread; the front end then
# answers into closed sockets. It must still be alive and answer a fresh
# connection.
function(iph_hang_up name port pidfile)
  execute_process(
    COMMAND bash -c "for c in 1 2 3 4 5; do \
                       (exec 3<>/dev/tcp/127.0.0.1/${port} && \
                        cat '${WORK_DIR}/hangup.ndjson' >&3) & \
                     done; wait; sleep 1.5"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hang-up smoke: the burst to ${name} failed (${rc})")
  endif()
  execute_process(COMMAND sh -c "kill -0 $(cat '${pidfile}')"
                  RESULT_VARIABLE alive OUTPUT_QUIET ERROR_QUIET)
  if(NOT alive EQUAL 0)
    message(FATAL_ERROR "hang-up smoke: ${name} died after its clients "
                        "hung up")
  endif()
  execute_process(
    COMMAND "${HULLLOAD}" --connect "127.0.0.1:${port}"
            --clients 1 --requests 2 --n 64 --expect-all-ok
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hang-up smoke: ${name} did not answer a fresh "
                        "connection (exit ${rc})\n${err}")
  endif()
endfunction()
iph_hang_up(hullserved "${HU_BE_PORT}" "${WORK_DIR}/hu_be.pid")
iph_hang_up(hullrouter "${HU_RT_PORT}" "${WORK_DIR}/hu_rt.pid")
foreach(tool hu_rt hu_be)
  execute_process(
    COMMAND sh -c "kill -INT $(cat '${WORK_DIR}/${tool}.pid') 2>/dev/null; true")
endforeach()

message(STATUS "serve tools smoke ok")
