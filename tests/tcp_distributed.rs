//! Distributed integration: a SeD served over real TCP sockets — the role
//! CORBA played in the original DIET. A server thread wraps a live
//! `SedHandle` behind the framed TCP transport; the client speaks the wire
//! protocol (`Call` / `CallReply`) through `TcpTransport`.

use cosmogrid::namelist::default_run_namelist;
use cosmogrid::services::{cosmology_service_table, status, zoom1_profile};
use diet_core::codec::Message;
use diet_core::hierarchy::serve_sed_over_tcp;
use diet_core::sed::{SedConfig, SedHandle};
use diet_core::transport::{TcpServer, TcpTransport};
use std::sync::Arc;

/// Expose a SeD over TCP: each connection can stream multiple calls.
fn serve_sed(sed: Arc<SedHandle>) -> TcpServer {
    serve_sed_over_tcp(sed).expect("bind")
}

#[test]
fn zoom1_call_over_tcp() {
    let sed = SedHandle::spawn(SedConfig::new("tcp/0", 1.0), cosmology_service_table());
    let server = serve_sed(sed.clone());

    let client = TcpTransport::connect(server.local_addr).unwrap();
    client.send(&Message::Ping { request_id: 1 }).unwrap();
    assert_eq!(client.recv().unwrap(), Message::Pong { request_id: 1 });

    let mut nl = default_run_namelist(8, 50.0);
    nl.set("OUTPUT_PARAMS", "aout", "0.5, 1.0");
    let profile = zoom1_profile(&nl, 8);
    client
        .send(&Message::Call {
            request_id: 77,
            ctx: diet_core::TraceCtx::default(),
            profile,
        })
        .unwrap();

    match client.recv().unwrap() {
        Message::CallReply {
            request_id, result, ..
        } => {
            assert_eq!(request_id, 77);
            let p = result.expect("solve should succeed");
            assert_eq!(p.get_i32(3).unwrap(), status::OK);
            let (_, tar) = p.get_file(2).unwrap();
            // The tarball made a full round trip over the socket.
            let entries = cosmogrid::archive::unpack(&tar.clone()).unwrap();
            assert!(cosmogrid::archive::find(&entries, "halos/catalog.txt").is_some());
        }
        other => panic!("unexpected reply {other:?}"),
    }

    sed.shutdown();
}

#[test]
fn tcp_errors_are_reported_not_fatal() {
    let sed = SedHandle::spawn(SedConfig::new("tcp/1", 1.0), cosmology_service_table());
    let server = serve_sed(sed.clone());
    let client = TcpTransport::connect(server.local_addr).unwrap();

    // A profile for a service the SeD does not declare.
    let d = diet_core::profile::ProfileDesc::alloc("ghost", -1, -1, 0);
    let p = diet_core::profile::Profile::alloc(&d);
    client
        .send(&Message::Call {
            request_id: 1,
            ctx: diet_core::TraceCtx::default(),
            profile: p,
        })
        .unwrap();
    match client.recv().unwrap() {
        Message::CallReply { result, .. } => {
            let err = result.expect_err("ghost service must fail");
            assert!(
                err.contains("ghost"),
                "error should name the service: {err}"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // The connection is still usable afterwards.
    client.send(&Message::Ping { request_id: 2 }).unwrap();
    assert_eq!(client.recv().unwrap(), Message::Pong { request_id: 2 });
    sed.shutdown();
}

#[test]
fn multiple_tcp_clients_share_one_sed() {
    let sed = SedHandle::spawn(SedConfig::new("tcp/2", 1.0), cosmology_service_table());
    let server = serve_sed(sed.clone());
    let addr = server.local_addr;

    let handles: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                let client = TcpTransport::connect(addr).unwrap();
                // Invalid resolution → instant round trip, still exercises the
                // full path (codec, socket, SeD queue, solve, reply).
                let mut nl = default_run_namelist(8, 50.0);
                nl.set("OUTPUT_PARAMS", "aout", "0.5");
                let profile = zoom1_profile(&nl, 7);
                client
                    .send(&Message::Call {
                        request_id: i,
                        ctx: diet_core::TraceCtx::default(),
                        profile,
                    })
                    .unwrap();
                match client.recv().unwrap() {
                    Message::CallReply {
                        request_id, result, ..
                    } => {
                        assert_eq!(request_id, i);
                        let p = result.unwrap();
                        assert_eq!(p.get_i32(3).unwrap(), status::BAD_RESOLUTION);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(sed.completed(), 3);
    sed.shutdown();
}
