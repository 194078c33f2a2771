//! The byte-bound reply path over real TCP: a `CallReply` carries the
//! arguments the solve replaced and nothing else, and the pool's caller
//! still sees the profile an in-process call returns.

use bytes::Bytes;
use diet_core::codec::{decode_message, encode_message, Message};
use diet_core::data::{DietValue, Persistence};
use diet_core::hierarchy::serve_sed_over_tcp;
use diet_core::profile::{ArgTag, Profile, ProfileDesc};
use diet_core::sed::{SedConfig, SedHandle, ServiceTable, SolveFn};
use diet_core::transport::{TcpSedPool, TcpTransport};
use diet_core::TraceCtx;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const MIB: usize = 1 << 20;

/// `blob`: 0 IN file, 1 INOUT vector (the solve doubles it), 2 INOUT string
/// (left alone), 3 OUT file (the IN file's own buffer under a new name),
/// 4 OUT byte sum.
fn blob_desc() -> ProfileDesc {
    let mut d = ProfileDesc::alloc("blob", 0, 2, 4);
    d.set_arg(0, ArgTag::File).unwrap();
    d.set_arg(1, ArgTag::Vector).unwrap();
    d.set_arg(2, ArgTag::StringTag).unwrap();
    d.set_arg(3, ArgTag::File).unwrap();
    d.set_arg(4, ArgTag::Scalar).unwrap();
    d
}

fn blob_table() -> ServiceTable {
    let solve: SolveFn = Arc::new(|p: &mut Profile| {
        let (_, data) = p.get_file(0)?;
        let (data, sum) = (data.clone(), data.iter().map(|b| *b as i64).sum());
        let doubled: Vec<f64> = match p.get(1)? {
            DietValue::VectorF64(xs) => xs.iter().map(|x| 2.0 * x).collect(),
            _ => return Ok(1),
        };
        p.set(1, DietValue::vec_f64(doubled), Persistence::Volatile)?;
        let out = DietValue::File {
            name: "out".into(),
            data,
        };
        p.set(3, out, Persistence::Volatile)?;
        p.set(4, DietValue::ScalarI64(sum), Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(1);
    t.add(blob_desc(), solve).unwrap();
    t
}

fn blob_request() -> Profile {
    let mut p = Profile::alloc(&blob_desc());
    let data: Vec<u8> = (0..MIB).map(|i| (i * 7 + 3) as u8).collect();
    let file = DietValue::File {
        name: "in".into(),
        data: Bytes::from(data),
    };
    p.set(0, file, Persistence::Volatile).unwrap();
    p.set(
        1,
        DietValue::vec_f64(vec![1.5, -2.0]),
        Persistence::Volatile,
    )
    .unwrap();
    p.set(2, DietValue::Str("params".into()), Persistence::Volatile)
        .unwrap();
    p
}

#[test]
fn reply_leaves_out_unreplaced_arguments_and_the_pool_puts_them_back() {
    let sed = SedHandle::spawn(SedConfig::new("bulk/0", 1.0), blob_table());
    let server = serve_sed_over_tcp(sed.clone()).unwrap();
    let request = blob_request();

    let in_process = sed
        .submit(request.clone())
        .unwrap()
        .recv()
        .unwrap()
        .result
        .unwrap();
    assert_eq!(in_process.values[0], request.values[0]);
    assert_eq!(
        in_process.values[1],
        DietValue::vec_f64(vec![3.0, -4.0]),
        "the replaced INOUT slot holds the new value"
    );

    // Through the pool: slot for slot what the in-process call returned.
    let pool = TcpSedPool::new();
    pool.register("bulk/0", server.local_addr);
    let over_tcp = pool
        .call("bulk/0", request.clone(), Duration::from_secs(10))
        .unwrap();
    assert_eq!(over_tcp, in_process);

    // On the wire: one MiB came back (the OUT file), not two.
    let mut raw = TcpStream::connect(server.local_addr).unwrap();
    let call = encode_message(&Message::Call {
        request_id: 5,
        ctx: TraceCtx::default(),
        profile: request.clone(),
    });
    raw.write_all(&(call.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&call).unwrap();
    let mut prefix = [0u8; 4];
    raw.read_exact(&mut prefix).unwrap();
    let reply_len = u32::from_le_bytes(prefix) as usize;
    assert!(
        (MIB..MIB + MIB / 10).contains(&reply_len),
        "reply frame of {reply_len} bytes for a 1 MiB OUT file"
    );
    let mut frame = vec![0u8; reply_len];
    raw.read_exact(&mut frame).unwrap();
    let Ok(Message::CallReply {
        request_id: 5,
        result: Ok(reply),
        ..
    }) = decode_message(Bytes::from(frame))
    else {
        panic!("not the CallReply of request 5");
    };
    assert!(reply.values[0].is_null(), "the IN file was echoed");
    assert!(reply.values[2].is_null(), "the untouched INOUT was echoed");
    assert_eq!(reply.values[1], in_process.values[1]);
    assert_eq!(reply.values[3..], in_process.values[3..]);
    assert_eq!(reply.persistence, in_process.persistence);
    sed.shutdown();
}

#[test]
fn an_equal_value_in_a_new_buffer_is_still_sent_back() {
    // `same`: rewrites its INOUT file with equal bytes in a fresh buffer.
    // Only identity lets the server leave a slot out, so this one travels.
    let mut d = ProfileDesc::alloc("same", -1, 0, 0);
    d.set_arg(0, ArgTag::File).unwrap();
    let solve: SolveFn = Arc::new(|p: &mut Profile| {
        let (name, data) = p.get_file(0)?;
        let copy = DietValue::File {
            name: name.to_string(),
            data: Bytes::from(data.to_vec()),
        };
        p.set(0, copy, Persistence::Volatile)?;
        Ok(0)
    });
    let mut t = ServiceTable::init(1);
    t.add(d.clone(), solve).unwrap();
    let sed = SedHandle::spawn(SedConfig::new("bulk/1", 1.0), t);
    let server = serve_sed_over_tcp(sed.clone()).unwrap();

    let mut request = Profile::alloc(&d);
    let file = DietValue::File {
        name: "f".into(),
        data: Bytes::from(vec![9u8; 4096]),
    };
    request.set(0, file, Persistence::Volatile).unwrap();
    let conn = TcpTransport::connect(server.local_addr).unwrap();
    conn.send(&Message::Call {
        request_id: 1,
        ctx: TraceCtx::default(),
        profile: request.clone(),
    })
    .unwrap();
    match conn.recv().unwrap() {
        Message::CallReply { result, .. } => assert_eq!(result.unwrap(), request),
        other => panic!("unexpected reply {other:?}"),
    }
    sed.shutdown();
}
