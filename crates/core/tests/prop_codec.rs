//! Property tests: the wire codec round-trips arbitrary profiles and
//! messages, and never panics on corrupted input.

use bytes::Bytes;
use diet_core::codec::{decode_message, encode_message, Message, ProcessSource};
use diet_core::dag::{
    DagEventRec, DagInput, DagNodeOutcome, DagNodeSpec, DagNodeState, DagOutcome, WorkflowSpec,
};
use diet_core::data::{DietValue, Persistence};
use diet_core::jobserver::{CampaignSummary, TaskEventRec, TaskPayload, TaskState, TaskStatusRec};
use diet_core::monitor::Estimate;
use diet_core::profile::Profile;
use diet_core::sched::{DataLocal, MinQueue, RandomSched, RoundRobin, Scheduler, WeightedSpeed};
use obs::{MetricSnapshot, SpanRecord, TraceCtx};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = DietValue> {
    prop_oneof![
        Just(DietValue::Null),
        any::<i32>().prop_map(DietValue::ScalarI32),
        any::<i64>().prop_map(DietValue::ScalarI64),
        (-1e300f64..1e300).prop_map(DietValue::ScalarF64),
        any::<u8>().prop_map(DietValue::ScalarChar),
        prop::collection::vec(-1e12f64..1e12, 0..50).prop_map(DietValue::vec_f64),
        prop::collection::vec(any::<i32>(), 0..50).prop_map(DietValue::vec_i32),
        ".*".prop_map(|s: String| DietValue::Str(s.into())),
        (
            "[a-z./_-]{0,40}",
            prop::collection::vec(any::<u8>(), 0..256)
        )
            .prop_map(|(name, data)| DietValue::File {
                name,
                data: Bytes::from(data),
            }),
        "[a-z0-9/_.-]{1,40}".prop_map(DietValue::data_ref),
    ]
}

fn arb_persistence() -> impl Strategy<Value = Persistence> {
    prop_oneof![
        Just(Persistence::Volatile),
        Just(Persistence::Persistent),
        Just(Persistence::Sticky),
    ]
}

fn arb_profile() -> impl Strategy<Value = Profile> {
    (
        "[a-zA-Z][a-zA-Z0-9_]{0,30}",
        prop::collection::vec((arb_value(), arb_persistence()), 0..12),
    )
        .prop_map(|(service, args)| {
            let (values, persistence) = args.into_iter().unzip();
            Profile {
                service,
                values,
                persistence,
            }
        })
}

/// Timings that survive an equality-checked roundtrip (NaN != NaN even
/// though its bits roundtrip fine).
fn arb_finite_f64() -> impl Strategy<Value = f64> {
    any::<f64>().prop_map(|f| if f.is_nan() { 0.0 } else { f })
}

/// Estimates as they travel inside `EstimateBatch` frames: finite floats
/// (NaN breaks the equality-checked roundtrip) and both `Option` arms.
fn arb_wire_estimates() -> impl Strategy<Value = Vec<Estimate>> {
    prop::collection::vec(
        (
            "[a-z/0-9]{1,20}",
            0.01f64..100.0,
            any::<u64>(),
            0usize..1000,
            prop::option::of(0.0f64..1e6),
            0.0f64..10.0,
            prop::option::of(0usize..64),
        ),
        0..8,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .map(|(server, speed, mem, queue, known, rtt, cap)| Estimate {
                server,
                speed_factor: speed,
                free_memory: mem,
                queue_length: queue,
                completed: queue as u64,
                known_mean_duration: known,
                probe_rtt: rtt,
                data_local_bytes: mem / 2,
                data_miss_bytes: mem / 3,
                admission_limit: cap,
            })
            .collect()
    })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            "[a-z]{1,20}",
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec("[a-z/0-9]{1,20}", 0..6)
        )
            .prop_map(|(service, request_id, trace_id, parent_span, exclude)| {
                Message::Submit {
                    service,
                    request_id,
                    ctx: TraceCtx {
                        trace_id,
                        parent_span,
                    },
                    exclude,
                }
            }),
        (
            "[a-z]{1,20}",
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec("[a-z/0-9]{1,20}", 0..6),
            any::<u8>()
        )
            .prop_map(
                |(service, request_id, trace_id, exclude, ttl)| Message::Forward {
                    request_id,
                    ctx: TraceCtx {
                        trace_id,
                        parent_span: 0,
                    },
                    service,
                    exclude,
                    ttl,
                }
            ),
        (any::<u64>(), arb_wire_estimates()).prop_map(|(request_id, estimates)| {
            Message::EstimateBatch {
                request_id,
                estimates,
            }
        }),
        (any::<u64>(), prop::option::of("[a-z/0-9]{1,20}"))
            .prop_map(|(request_id, server)| Message::SubmitReply { request_id, server }),
        (any::<u64>(), any::<u64>(), any::<u64>(), arb_profile()).prop_map(
            |(request_id, trace_id, parent_span, profile)| Message::Call {
                request_id,
                ctx: TraceCtx {
                    trace_id,
                    parent_span,
                },
                profile
            }
        ),
        (
            any::<u64>(),
            arb_finite_f64(),
            arb_finite_f64(),
            arb_result(arb_profile())
        )
            .prop_map(
                |(request_id, queue_wait, solve, result)| Message::CallReply {
                    request_id,
                    queue_wait,
                    solve,
                    result,
                }
            ),
        any::<u64>().prop_map(|request_id| Message::Ping { request_id }),
        any::<u64>().prop_map(|request_id| Message::Pong { request_id }),
        (any::<u64>(), "[a-z0-9/_.-]{1,40}")
            .prop_map(|(request_id, id)| Message::GetData { request_id, id }),
        (
            any::<u64>(),
            "[a-z0-9/_.-]{1,40}",
            arb_result((arb_value(), arb_persistence()))
        )
            .prop_map(|(request_id, id, result)| Message::DataReply {
                request_id,
                id,
                result,
            }),
        (
            any::<u64>(),
            "[a-z0-9/_.-]{1,40}",
            arb_value(),
            arb_persistence()
        )
            .prop_map(|(request_id, id, value, mode)| Message::PutData {
                request_id,
                id,
                mode,
                value,
            },),
        any::<u64>().prop_map(|request_id| Message::Busy { request_id }),
        (
            any::<u64>(),
            "[a-z][a-z0-9-]{0,24}",
            prop::collection::vec(arb_task_payload(), 0..6)
        )
            .prop_map(|(request_id, campaign, tasks)| Message::SubmitTasks {
                request_id,
                campaign,
                tasks,
            }),
        (
            any::<u64>(),
            arb_result((any::<u64>(), prop::collection::vec(any::<u64>(), 0..32)))
        )
            .prop_map(|(request_id, result)| Message::SubmitTasksReply { request_id, result }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(request_id, campaign_id, task_id)| Message::TaskStatus {
                request_id,
                campaign_id,
                task_id,
            }
        ),
        (
            any::<u64>(),
            arb_result(
                (
                    any::<u64>(),
                    arb_task_state(),
                    any::<u32>(),
                    "[a-z/0-9]{0,20}"
                )
                    .prop_map(|(task_id, state, attempts, sed)| TaskStatusRec {
                        task_id,
                        state,
                        attempts,
                        sed,
                    })
            )
        )
            .prop_map(|(request_id, result)| Message::TaskStatusReply { request_id, result }),
        (any::<u64>(), "[a-z][a-z0-9-]{0,24}").prop_map(|(request_id, campaign)| {
            Message::AttachCampaign {
                request_id,
                campaign,
            }
        }),
        (any::<u64>(), arb_result(arb_campaign_summary()))
            .prop_map(|(request_id, result)| Message::AttachReply { request_id, result }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(request_id, campaign_id, cursor)| {
            Message::CampaignProgress {
                request_id,
                campaign_id,
                cursor,
            }
        }),
        (
            any::<u64>(),
            arb_result((
                arb_campaign_summary(),
                prop::collection::vec(arb_task_event(), 0..16)
            ))
        )
            .prop_map(|(request_id, result)| Message::ProgressReply { request_id, result }),
        (any::<u64>(), arb_ctx(), arb_workflow()).prop_map(|(request_id, ctx, spec)| {
            Message::SubmitDag {
                request_id,
                ctx,
                spec,
            }
        }),
        (any::<u64>(), arb_result(any::<u64>()))
            .prop_map(|(request_id, result)| Message::DagReply { request_id, result }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(request_id, dag_id, since)| {
            Message::DagStatus {
                request_id,
                dag_id,
                since,
            }
        }),
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(arb_dag_event(), 0..6),
            prop::option::of(arb_dag_outcome())
        )
            .prop_map(|(request_id, dag_id, events, outcome)| Message::DagEvent {
                request_id,
                dag_id,
                events,
                outcome,
            }),
        (
            any::<u64>(),
            arb_source(),
            prop::collection::vec(arb_span(), 0..6)
        )
            .prop_map(|(request_id, source, spans)| Message::PushSpans {
                request_id,
                source,
                spans,
            }),
        (
            any::<u64>(),
            arb_source(),
            prop::collection::vec(
                (
                    "[a-z_]{1,24}",
                    prop::collection::vec(("[a-z]{1,8}", "[a-z/0-9]{0,12}"), 0..3),
                    arb_snapshot()
                ),
                0..5
            )
        )
            .prop_map(|(request_id, source, deltas)| Message::PushMetricDeltas {
                request_id,
                source,
                deltas,
            }),
        any::<u64>().prop_map(|request_id| Message::PushAck { request_id }),
        (any::<u64>(), "[a-z]{0,10}")
            .prop_map(|(request_id, what)| Message::DumpMetricsRid { request_id, what }),
        (any::<u64>(), ".*")
            .prop_map(|(request_id, text)| Message::MetricsReplyRid { request_id, text }),
    ]
}

/// Both arms of a reply's `Result` field.
fn arb_result<T: 'static>(
    ok: impl Strategy<Value = T> + 'static,
) -> impl Strategy<Value = Result<T, String>> {
    prop_oneof![ok.prop_map(Ok), ".*".prop_map(Err)]
}

fn arb_ctx() -> impl Strategy<Value = TraceCtx> {
    (any::<u64>(), any::<u64>()).prop_map(|(trace_id, parent_span)| TraceCtx {
        trace_id,
        parent_span,
    })
}

fn arb_source() -> impl Strategy<Value = ProcessSource> {
    ("[a-z]{0,8}", "[a-z/0-9]{0,12}", any::<u32>(), "[a-z]{0,8}").prop_map(
        |(role, label, pid, site)| ProcessSource {
            role,
            label,
            pid,
            site,
        },
    )
}

fn arb_span() -> impl Strategy<Value = SpanRecord> {
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        // Names the decoder's interner already knows: nothing is leaked.
        prop_oneof![Just("Finding"), Just("Execution"), Just("span")],
        "[a-z/0-9]{0,12}",
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(trace_id, span_id, parent, name, resource, start_ns, end_ns)| SpanRecord {
                trace_id,
                span_id,
                parent,
                name,
                resource,
                start_ns,
                end_ns,
            },
        )
}

fn arb_snapshot() -> impl Strategy<Value = MetricSnapshot> {
    prop_oneof![
        any::<u64>().prop_map(MetricSnapshot::Counter),
        (-1e12f64..1e12).prop_map(MetricSnapshot::Gauge),
        (
            prop::collection::vec(0.0f64..1e6, 0..6),
            prop::collection::vec(any::<u64>(), 0..7),
            0.0f64..1e9,
            any::<u64>()
        )
            .prop_map(|(bounds, counts, sum, count)| MetricSnapshot::Histogram {
                bounds,
                counts,
                sum,
                count,
            }),
    ]
}

fn arb_workflow() -> impl Strategy<Value = WorkflowSpec> {
    let node = (
        any::<u32>(),
        arb_profile(),
        prop::collection::vec(any::<u32>(), 0..4),
        prop::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..3),
        prop::option::of("[a-z_]{1,12}"),
        prop::collection::vec(("[a-z_]{1,8}", "[a-z0-9]{0,8}"), 0..3),
        any::<u32>(),
    )
        .prop_map(
            |(id, profile, deps, inputs, expander, params, max_retries)| DagNodeSpec {
                id,
                profile,
                deps,
                inputs: inputs
                    .into_iter()
                    .map(|(arg, from_node, from_arg)| DagInput {
                        arg,
                        from_node,
                        from_arg,
                    })
                    .collect(),
                expander,
                params,
                max_retries,
            },
        );
    ("[a-z][a-z0-9-]{0,16}", prop::collection::vec(node, 0..3))
        .prop_map(|(name, nodes)| WorkflowSpec { name, nodes })
}

fn arb_dag_event() -> impl Strategy<Value = DagEventRec> {
    (
        any::<u64>(),
        any::<u32>(),
        0u8..7,
        "[a-z/0-9 ]{0,20}",
        any::<u64>(),
    )
        .prop_map(|(seq, node, state, detail, at_ms)| DagEventRec {
            seq,
            node,
            state: DagNodeState::from_u8(state).unwrap(),
            detail,
            at_ms,
        })
}

fn arb_dag_outcome() -> impl Strategy<Value = DagOutcome> {
    let node = (
        any::<u32>(),
        "[a-zA-Z0-9]{0,12}",
        "[a-z/0-9]{0,12}",
        any::<i32>(),
        any::<u32>(),
        any::<bool>(),
        any::<u64>(),
        (
            prop::collection::vec((any::<u32>(), "[a-zA-Z0-9@.#]{0,20}"), 0..3),
            prop::collection::vec((any::<u32>(), any::<i64>()), 0..3),
        ),
    )
        .prop_map(
            |(
                node,
                service,
                sed,
                status,
                attempts,
                speculated,
                duration_ms,
                (outputs, scalars),
            )| {
                DagNodeOutcome {
                    node,
                    service,
                    sed,
                    status,
                    attempts,
                    speculated,
                    duration_ms,
                    outputs,
                    scalars,
                }
            },
        );
    (
        any::<u64>(),
        any::<bool>(),
        any::<u64>(),
        any::<u32>(),
        prop::collection::vec(node, 0..3),
    )
        .prop_map(|(dag_id, ok, makespan_ms, cancelled, nodes)| DagOutcome {
            dag_id,
            ok,
            makespan_ms,
            cancelled,
            nodes,
        })
}

fn arb_task_state() -> impl Strategy<Value = TaskState> {
    prop_oneof![
        Just(TaskState::Pending),
        Just(TaskState::Dispatched),
        Just(TaskState::Done),
        Just(TaskState::Failed),
    ]
}

fn arb_task_payload() -> impl Strategy<Value = TaskPayload> {
    prop_oneof![
        arb_profile().prop_map(TaskPayload::Call),
        arb_workflow().prop_map(TaskPayload::Dag),
    ]
}

fn arb_task_event() -> impl Strategy<Value = TaskEventRec> {
    (
        any::<u64>(),
        any::<u64>(),
        arb_task_state(),
        any::<u32>(),
        "[a-z/0-9]{0,20}",
        any::<u64>(),
    )
        .prop_map(|(seq, task_id, state, attempt, sed, ms)| TaskEventRec {
            seq,
            task_id,
            state,
            attempt,
            sed,
            ms,
        })
}

fn arb_campaign_summary() -> impl Strategy<Value = CampaignSummary> {
    (
        any::<u64>(),
        "[a-z][a-z0-9-]{0,24}",
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(
            |(campaign_id, name, total, done, failed, resubmissions, finished)| CampaignSummary {
                campaign_id,
                name,
                total,
                done,
                failed,
                resubmissions,
                finished,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode is the identity for every message, and no strict
    /// prefix of the encoding decodes back to it.
    #[test]
    fn message_roundtrip(m in arb_message()) {
        let enc = encode_message(&m);
        for cut in 0..enc.len() {
            if let Ok(other) = decode_message(enc.slice(0..cut)) {
                prop_assert_ne!(other, m.clone(), "cut at {}", cut);
            }
        }
        prop_assert_eq!(decode_message(enc).unwrap(), m);
    }

    /// Decoding arbitrary bytes errors or succeeds — never panics.
    #[test]
    fn decode_never_panics(raw in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_message(Bytes::from(raw));
    }

    /// The structure-aware companion: random bytes never get past the
    /// first string, so slide a 4-byte window of `0xFFFF_FFFF` (and once of
    /// random bytes) over a *valid* frame. Every count field is hit at some
    /// offset, and decoding must return — not panic, not ask the allocator
    /// for what the count claims.
    #[test]
    fn mutated_frames_never_panic_or_abort(m in arb_message(), noise in any::<u32>()) {
        let enc = encode_message(&m).to_vec();
        for at in 0..enc.len() {
            for window in [u32::MAX, noise] {
                let mut frame = enc.clone();
                let end = (at + 4).min(frame.len());
                frame[at..end].copy_from_slice(&window.to_le_bytes()[..end - at]);
                let _ = decode_message(Bytes::from(frame));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The transport's configured `max_frame` cap (the length-validation
    /// path) holds for the data-management frames: any `DataReply` one byte
    /// over the reader's limit is rejected before allocation, and the exact
    /// frame length is accepted and round-trips.
    #[test]
    fn data_reply_frames_respect_max_frame(
        id in "[a-z0-9]{1,16}",
        xs in prop::collection::vec(-1e12f64..1e12, 0..64),
        sticky in any::<bool>(),
    ) {
        use diet_core::transport::TcpTransport;
        let mode = if sticky { Persistence::Sticky } else { Persistence::Persistent };
        let msg = Message::DataReply {
            request_id: 9,
            id,
            result: Ok((DietValue::vec_f64(xs), mode)),
        };
        let frame_len = encode_message(&msg).len();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = msg.clone();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (s, _) = listener.accept().unwrap();
                let t = TcpTransport::from_stream(s);
                let _ = t.send(&served);
            }
        });
        let strict = TcpTransport::connect(addr)
            .unwrap()
            .with_max_frame(frame_len - 1);
        prop_assert!(strict.recv().is_err(), "over-limit frame must be rejected");
        let exact = TcpTransport::connect(addr)
            .unwrap()
            .with_max_frame(frame_len);
        prop_assert_eq!(exact.recv().unwrap(), msg);
        server.join().unwrap();
    }
}

fn arb_estimates() -> impl Strategy<Value = Vec<Estimate>> {
    prop::collection::vec(
        (
            "[a-z]{1,8}",
            0.1f64..4.0,
            0usize..50,
            prop::option::of(1.0f64..1e4),
        ),
        1..40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (name, speed, queue, known))| Estimate {
                server: format!("{name}{i}"),
                speed_factor: speed,
                free_memory: 1 << 30,
                queue_length: queue,
                completed: queue as u64,
                known_mean_duration: known,
                // Exercise the locality term too: pseudo-random misses.
                data_miss_bytes: (i as u64) << 20,
                ..Estimate::default()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every scheduler returns an in-range index for any candidate set.
    #[test]
    fn schedulers_select_in_range(ests in arb_estimates(), seed in 1u64..1000) {
        let scheds: Vec<Box<dyn Scheduler>> = vec![
            Box::new(RoundRobin::new()),
            Box::new(RandomSched::new(seed)),
            Box::new(MinQueue),
            Box::new(WeightedSpeed),
            Box::new(DataLocal::default()),
        ];
        for s in &scheds {
            for _ in 0..5 {
                let pick = s.select(&ests);
                prop_assert!(pick < ests.len(), "{} out of range", s.name());
            }
        }
    }

    /// Round-robin over k calls hits every candidate floor(k/n) or
    /// ceil(k/n) times — the paper's 9-or-10 distribution, generalised.
    #[test]
    fn round_robin_balanced(n in 1usize..20, k in 1usize..200) {
        let ests: Vec<Estimate> = (0..n)
            .map(|i| Estimate {
                server: format!("s{i}"),
                speed_factor: 1.0,
                ..Estimate::default()
            })
            .collect();
        let rr = RoundRobin::new();
        let mut counts = vec![0usize; n];
        for _ in 0..k {
            counts[rr.select(&ests)] += 1;
        }
        let lo = k / n;
        let hi = k.div_ceil(n);
        for c in counts {
            prop_assert!(c == lo || c == hi, "count {c} outside {{{lo},{hi}}}");
        }
    }
}
