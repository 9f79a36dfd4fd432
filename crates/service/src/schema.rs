//! The wire schema: every daemon message is declared once, as a field
//! table, and that one table drives both protocols.
//!
//! [`crate::proto`] declares each struct and message enum through
//! [`wire_struct!`], [`wire_enum!`] and [`wire_codes!`]. A field entry
//! gives the Rust field, its wire name (the v1 JSON key and, joined by
//! dots, the v2 error label such as `map.calibration.probes`), its type
//! (the wire kind) and its v1 default; an entry without a default is
//! required. From that table the macros expand four codec directions
//! into straight-line, monomorphised code:
//!
//! * **v1 emit** — one JSON object, fields in table order;
//! * **v1 lenient parse** — absent or ill-typed fields take their
//!   default, a missing required field names itself in the error;
//! * **v2 write** — fixed field order: integers as LE `u64`/`u32`/`u8`,
//!   floats as `f64::to_bits` LE (bit-exact), strings and lists behind
//!   a u32 length, options behind a presence byte, enums as byte codes;
//! * **v2 strict read** — total: any byte sequence yields a value or a
//!   typed [`FrameError`] naming the field it failed at.
//!
//! The semantic bounds ([`Wire::check`]) are written once and run after
//! either decoder, so both protocols refuse the same bad request with
//! the same message.
//!
//! **Extensions** are optional fields added after a message shipped.
//! They live in a table's trailing `ext` section only: absent, they are
//! absent from both encodings (the message keeps its old bytes); present,
//! v1 appends the key and v2 appends a marker byte and the payload.
//! Markers must strictly ascend — checked at compile time by
//! [`markers_ascend`] — so the v2 reader takes each extension at most
//! once, in order, and refuses any byte it does not recognise. A lone
//! extension may be unmarked (`= _`): its payload then follows the fixed
//! fields directly.

// The reader must stay cast-clean: a wire `u64` narrowed with `as`
// silently wraps on 32-bit targets (and under hostile >2^32 values),
// turning a malformed frame into a wrong-but-plausible request. Every
// narrowing goes through `try_from` and errors as `Malformed`.
#![deny(clippy::cast_possible_truncation)]

use crate::frame::FrameError;
use crate::json::Json;
use std::fmt;

/// Where a field sits in a message (`map.calibration.probes`): a chain
/// of stack frames, formatted only when an error needs it.
#[derive(Clone, Copy)]
pub(crate) struct Path<'a> {
    parent: Option<&'a Path<'a>>,
    key: &'static str,
}

impl<'a> Path<'a> {
    /// The root of one message, labelled by its v1 kind.
    pub(crate) fn root(key: &'static str) -> Self {
        Self { parent: None, key }
    }

    /// A field below this one.
    pub(crate) fn field(&'a self, key: &'static str) -> Path<'a> {
        Path {
            parent: Some(self),
            key,
        }
    }
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(parent) = self.parent {
            write!(f, "{parent}.")?;
        }
        f.write_str(self.key)
    }
}

fn malformed(message: String) -> FrameError {
    FrameError::Malformed(message)
}

/// A u32 length prefix (strings, lists, frame payloads), LE.
///
/// Invariant: every length fits a u32. The daemon never builds a
/// message larger than one frame ([`crate::frame::MAX_FRAME_BYTES`],
/// 4 MiB) — its one unbounded response, the trace dump, is cut to fit
/// ([`crate::proto::TraceDumpResponse::fit_frame`]) — and requests carry
/// CSV files, nowhere near 4 GiB.
pub(crate) fn wire_len(len: usize) -> [u8; 4] {
    u32::try_from(len)
        .expect("wire lengths fit u32 (see wire_len)")
        .to_le_bytes()
}

/// A cursor over one v2 payload. Every read is bounds-checked and
/// labelled with the field it was reading.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, at: &Path<'_>) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(malformed(format!(
                "{at} needs {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self, at: &Path<'_>) -> Result<[u8; N], FrameError> {
        Ok(self.take(N, at)?.try_into().expect("took exactly N bytes"))
    }

    fn len(&mut self, at: &Path<'_>) -> Result<usize, FrameError> {
        Ok(u32::from_le_bytes(self.array(at)?) as usize)
    }

    pub(crate) fn u8(&mut self, at: &Path<'_>) -> Result<u8, FrameError> {
        Ok(self.take(1, at)?[0])
    }

    /// Consume the next byte if it is the extension marker `marker`.
    pub(crate) fn marker(&mut self, marker: u8) -> bool {
        let hit = self.buf.get(self.pos) == Some(&marker);
        self.pos += usize::from(hit);
        hit
    }

    /// The end of a message: anything left over is an extension this
    /// peer does not know, or one out of order.
    pub(crate) fn finish(&self, at: &Path<'_>) -> Result<(), FrameError> {
        match self.buf.get(self.pos) {
            None => Ok(()),
            Some(b) => Err(malformed(format!(
                "{at}: {} trailing bytes (unknown extension marker {b})",
                self.remaining()
            ))),
        }
    }
}

/// One wire kind: how a field type crosses both protocols.
pub(crate) trait Wire: Sized {
    /// Fewest bytes one value takes in a v2 payload; a list refuses a
    /// declared count the remaining bytes cannot hold before allocating.
    const MIN_BYTES: usize;
    /// v1: the JSON value.
    fn to_json(&self) -> Json;
    /// v1, lenient: `None` when `v` does not hold this kind.
    fn from_json(v: &Json) -> Option<Self>;
    /// v2: append the fixed-layout encoding.
    fn write(&self, w: &mut Vec<u8>);
    /// v2, strict: decode one value of the field at `at`.
    fn read(r: &mut Reader<'_>, at: &Path<'_>) -> Result<Self, FrameError>;
    /// The bounds both decoders enforce, as the message they report.
    fn check(&self) -> Result<(), &'static str> {
        Ok(())
    }
}

macro_rules! int_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
            fn from_json(v: &Json) -> Option<Self> {
                v.as_u64().and_then(|x| Self::try_from(x).ok())
            }
            fn write(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&self.to_le_bytes());
            }
            fn read(r: &mut Reader<'_>, at: &Path<'_>) -> Result<Self, FrameError> {
                Ok(Self::from_le_bytes(r.array(at)?))
            }
        }
    )*};
}

int_wire!(u8, u32, u64);

/// `usize` rides the wire as a `u64`; narrowing back is checked, so a
/// value past `usize::MAX` is `Malformed`, never a silent wrap.
impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_u64().and_then(|x| Self::try_from(x).ok())
    }
    fn write(&self, w: &mut Vec<u8>) {
        (*self as u64).write(w);
    }
    fn read(r: &mut Reader<'_>, at: &Path<'_>) -> Result<Self, FrameError> {
        let v = u64::read(r, at)?;
        usize::try_from(v)
            .map_err(|_| malformed(format!("{at}: value {v} does not fit usize on this target")))
    }
}

impl Wire for f64 {
    const MIN_BYTES: usize = 8;
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_f64()
    }
    fn write(&self, w: &mut Vec<u8>) {
        self.to_bits().write(w);
    }
    fn read(r: &mut Reader<'_>, at: &Path<'_>) -> Result<Self, FrameError> {
        u64::read(r, at).map(f64::from_bits)
    }
}

impl Wire for bool {
    const MIN_BYTES: usize = 1;
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_bool()
    }
    fn write(&self, w: &mut Vec<u8>) {
        w.push(u8::from(*self));
    }
    fn read(r: &mut Reader<'_>, at: &Path<'_>) -> Result<Self, FrameError> {
        match r.u8(at)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(malformed(format!("{at}: bad bool byte {b}"))),
        }
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_str().map(str::to_owned)
    }
    fn write(&self, w: &mut Vec<u8>) {
        w.extend_from_slice(&wire_len(self.len()));
        w.extend_from_slice(self.as_bytes());
    }
    fn read(r: &mut Reader<'_>, at: &Path<'_>) -> Result<Self, FrameError> {
        let len = r.len(at)?;
        String::from_utf8(r.take(len, at)?.to_vec())
            .map_err(|e| malformed(format!("{at}: invalid UTF-8: {e}")))
    }
}

/// v1 `null` or the value; v2 a presence byte, then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(v: &Json) -> Option<Self> {
        if v.is_null() {
            Some(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
    fn write(&self, w: &mut Vec<u8>) {
        match self {
            Some(x) => {
                w.push(1);
                x.write(w);
            }
            None => w.push(0),
        }
    }
    fn read(r: &mut Reader<'_>, at: &Path<'_>) -> Result<Self, FrameError> {
        match r.u8(at)? {
            0 => Ok(None),
            1 => T::read(r, at).map(Some),
            b => Err(malformed(format!("{at}: bad presence byte {b}"))),
        }
    }
    fn check(&self) -> Result<(), &'static str> {
        self.as_ref().map_or(Ok(()), T::check)
    }
}

/// v1 an array; v2 a u32 count, then the entries.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_arr()?.iter().map(T::from_json).collect()
    }
    fn write(&self, w: &mut Vec<u8>) {
        w.extend_from_slice(&wire_len(self.len()));
        for x in self {
            x.write(w);
        }
    }
    fn read(r: &mut Reader<'_>, at: &Path<'_>) -> Result<Self, FrameError> {
        let count = r.len(at)?;
        // A declared count past what the remaining bytes can hold is
        // hostile input, refused before any allocation.
        if count > r.remaining() / T::MIN_BYTES {
            return Err(malformed(format!(
                "{at}: declared {count} entries exceed {} remaining bytes",
                r.remaining()
            )));
        }
        (0..count).map(|_| T::read(r, at)).collect()
    }
    fn check(&self) -> Result<(), &'static str> {
        self.iter().try_for_each(T::check)
    }
}

/// v1 a two-element array; v2 the two values back to back.
impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
    fn from_json(v: &Json) -> Option<Self> {
        match v.as_arr()? {
            [a, b] => Some((A::from_json(a)?, B::from_json(b)?)),
            _ => None,
        }
    }
    fn write(&self, w: &mut Vec<u8>) {
        self.0.write(w);
        self.1.write(w);
    }
    fn read(r: &mut Reader<'_>, at: &Path<'_>) -> Result<Self, FrameError> {
        Ok((A::read(r, at)?, B::read(r, at)?))
    }
}

/// A struct's fields as one JSON object, for message bodies.
pub(crate) trait Record: Sized {
    /// v1: append every field (and each present extension) in order.
    fn json_fields(&self, out: &mut Vec<(String, Json)>);
    /// v1, lenient: the struct, or the key of a missing required field.
    fn from_fields(doc: &Json) -> Result<Self, &'static str>;
}

/// An optional trailing extension: absent by default, and then absent
/// from both encodings.
pub(crate) trait Ext: Default {
    fn present(&self) -> bool;
    fn to_json(&self) -> Json;
    fn from_json(v: &Json) -> Option<Self>;
    fn write(&self, w: &mut Vec<u8>);
    fn read(r: &mut Reader<'_>, at: &Path<'_>) -> Result<Self, FrameError>;
    fn check(&self) -> Result<(), &'static str> {
        Ok(())
    }
}

/// A flag: present means `true`, and v2 carries it as the marker alone.
impl Ext for bool {
    fn present(&self) -> bool {
        *self
    }
    fn to_json(&self) -> Json {
        Json::Bool(true)
    }
    fn from_json(v: &Json) -> Option<Self> {
        v.as_bool()
    }
    fn write(&self, _: &mut Vec<u8>) {}
    fn read(_: &mut Reader<'_>, _: &Path<'_>) -> Result<Self, FrameError> {
        Ok(true)
    }
}

/// An optional value: present means `Some`, encoded as the value.
impl<T: Wire> Ext for Option<T> {
    fn present(&self) -> bool {
        self.is_some()
    }
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(v: &Json) -> Option<Self> {
        T::from_json(v).map(Some)
    }
    fn write(&self, w: &mut Vec<u8>) {
        if let Some(x) = self {
            x.write(w);
        }
    }
    fn read(r: &mut Reader<'_>, at: &Path<'_>) -> Result<Self, FrameError> {
        T::read(r, at).map(Some)
    }
    fn check(&self) -> Result<(), &'static str> {
        Wire::check(self)
    }
}

/// A message enum: the tag/kind dispatch over its variants.
pub(crate) trait Message: Sized {
    /// v1: the whole object, `"v"` and `"kind"` first.
    fn to_json(&self) -> Json;
    /// v1, lenient: the message of this `kind`, or the key of a missing
    /// required field (`None`: no such kind).
    fn from_json(kind: &str, doc: &Json) -> Result<Self, Option<&'static str>>;
    /// v2: the tag byte, then the variant's fields.
    fn write(&self, w: &mut Vec<u8>);
    /// v2, strict: one whole payload, trailing bytes refused.
    fn read(r: &mut Reader<'_>) -> Result<Self, FrameError>;
    /// The bounds every field declares ([`Wire::check`]).
    fn check(&self) -> Result<(), &'static str>;
}

/// The trailing-extension rule: markers strictly ascend, and an
/// unmarked extension (`None`) must be its message's only one.
pub(crate) const fn markers_ascend(markers: &[Option<u8>]) -> bool {
    let mut i = 0;
    while i < markers.len() {
        let ok = match (markers[i], i) {
            (None, _) => markers.len() == 1,
            (Some(_), 0) => true,
            (Some(m), _) => matches!(markers[i - 1], Some(prev) if prev < m),
        };
        if !ok {
            return false;
        }
        i += 1;
    }
    true
}

/// The wire name of a field: its `as "key"`, else the field's own name.
macro_rules! wire_key {
    ($f:ident) => {
        stringify!($f)
    };
    ($f:ident $k:literal) => {
        $k
    };
}

/// An extension marker as `Option<u8>`: `_` is unmarked.
macro_rules! wire_marker {
    (_) => {
        None
    };
    ($m:literal) => {
        Some($m)
    };
}

/// A table default, or `Default::default()` for a required field.
macro_rules! wire_default {
    () => {
        Default::default()
    };
    ($d:expr) => {
        $d
    };
}

/// v1 parse of one field: the default when absent or ill-typed, or the
/// caller's `Err(key)` when a required field is.
macro_rules! wire_v1_field {
    ($doc:ident, $key:expr) => {
        match $doc.get($key).and_then($crate::schema::Wire::from_json) {
            Some(v) => v,
            None => return Err($key.into()),
        }
    };
    ($doc:ident, $key:expr, $default:expr) => {
        $doc.get($key)
            .and_then($crate::schema::Wire::from_json)
            .unwrap_or_else(|| $default)
    };
}

/// Codegen over one field list, shared by structs and struct-like enum
/// variants. Fields arrive as `name (key?) (= default)?;`, extensions
/// as `name (key?) marker;`. Encoders expect every field bound by name
/// (by reference); decoders build `$ctor { .. }` in table order.
macro_rules! wire_fields {
    (json $out:ident;
     [$($f:ident ($($k:literal)?) $(= $d:expr)?;)*]
     [$($e:ident ($($ek:literal)?) $m:tt;)*]) => {
        $( $out.push(($crate::schema::wire_key!($f $($k)?).to_owned(),
                      $crate::schema::Wire::to_json($f))); )*
        $( if $crate::schema::Ext::present($e) {
            $out.push(($crate::schema::wire_key!($e $($ek)?).to_owned(),
                       $crate::schema::Ext::to_json($e)));
        } )*
    };
    (parse $doc:ident [$($ctor:tt)*];
     [$($f:ident ($($k:literal)?) $(= $d:expr)?;)*]
     [$($e:ident ($($ek:literal)?) $m:tt;)*]) => {
        $($ctor)* {
            $( $f: $crate::schema::wire_v1_field!(
                $doc, $crate::schema::wire_key!($f $($k)?) $(, $d)?), )*
            $( $e: $doc.get($crate::schema::wire_key!($e $($ek)?))
                .and_then($crate::schema::Ext::from_json)
                .unwrap_or_default(), )*
        }
    };
    (write $w:ident;
     [$($f:ident ($($k:literal)?) $(= $d:expr)?;)*]
     [$($e:ident ($($ek:literal)?) $m:tt;)*]) => {
        $( $crate::schema::Wire::write($f, $w); )*
        $( if $crate::schema::Ext::present($e) {
            if let Some(marker) = $crate::schema::wire_marker!($m) {
                $w.push(marker);
            }
            $crate::schema::Ext::write($e, $w);
        } )*
    };
    (read $r:ident $at:ident [$($ctor:tt)*];
     [$($f:ident ($($k:literal)?) $(= $d:expr)?;)*]
     [$($e:ident ($($ek:literal)?) $m:tt;)*]) => {
        $($ctor)* {
            $( $f: $crate::schema::Wire::read(
                $r, &$at.field($crate::schema::wire_key!($f $($k)?)))?, )*
            $( $e: {
                let present = match $crate::schema::wire_marker!($m) {
                    Some(marker) => $r.marker(marker),
                    None => $r.remaining() > 0,
                };
                if present {
                    $crate::schema::Ext::read(
                        $r, &$at.field($crate::schema::wire_key!($e $($ek)?)))?
                } else {
                    Default::default()
                }
            }, )*
        }
    };
    (pat [$($ctor:tt)*];
     [$($f:ident ($($k:literal)?) $(= $d:expr)?;)*]
     [$($e:ident ($($ek:literal)?) $m:tt;)*]) => {
        $($ctor)* { $($f,)* $($e,)* }
    };
    // Every message's first field is its correlation id.
    (id; [$f:ident $($rest:tt)*] [$($ext:tt)*]) => {
        $f
    };
    (markers;
     [$($f:ident ($($k:literal)?) $(= $d:expr)?;)*]
     [$($e:ident ($($ek:literal)?) $m:tt;)*]) => {
        &[$($crate::schema::wire_marker!($m)),*]
    };
    (check;
     [$($f:ident ($($k:literal)?) $(= $d:expr)?;)*]
     [$($e:ident ($($ek:literal)?) $m:tt;)*]) => {
        $( $crate::schema::Wire::check($f)?; )*
        $( $crate::schema::Ext::check($e)?; )*
    };
}

/// Declare a wire struct: the struct itself plus its [`Wire`] and
/// [`Record`] impls. `with Default` also derives `Default` from the
/// table's defaults (`Default::default()` for required fields);
/// `check path;` adds the struct's own bounds to [`Wire::check`].
///
/// ```text
/// pub struct Name [with Default] {
///     pub field [as "key"]: Type [= v1 default],
///     ...
/// } [ext {
///     pub field [as "key"]: Option<T> | bool = marker | _,
///     ...
/// }] [check path;]
/// ```
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $Name:ident with Default { $($body:tt)* }
        $($rest:tt)*
    ) => {
        $crate::schema::wire_struct!($(#[$meta])* pub struct $Name { $($body)* } $($rest)*);
        $crate::schema::wire_struct!(@default $Name { $($body)* } $($rest)*);
    };
    (
        @default $Name:ident {
            $( $(#[$fm:meta])* pub $f:ident $(as $k:literal)?: $ty:ty $(= $d:expr)? ),* $(,)?
        }
        $( ext {
            $( $(#[$em:meta])* pub $e:ident $(as $ek:literal)?: $ety:ty = $m:tt ),* $(,)?
        } )?
        $( check $check:path; )?
    ) => {
        impl Default for $Name {
            fn default() -> Self {
                Self {
                    $( $f: $crate::schema::wire_default!($($d)?), )*
                    $($( $e: Default::default(), )*)?
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $Name:ident {
            $( $(#[$fm:meta])* pub $f:ident $(as $k:literal)?: $ty:ty $(= $d:expr)? ),* $(,)?
        }
        $( ext {
            $( $(#[$em:meta])* pub $e:ident $(as $ek:literal)?: $ety:ty = $m:tt ),* $(,)?
        } )?
        $( check $check:path; )?
    ) => {
        $(#[$meta])*
        pub struct $Name {
            $( $(#[$fm])* pub $f: $ty, )*
            $($( $(#[$em])* pub $e: $ety, )*)?
        }

        const _: () = assert!(
            $crate::schema::markers_ascend($crate::schema::wire_fields!(markers;
                [$($f ($($k)?) $(= $d)?;)*] [$($($e ($($ek)?) $m;)*)?])),
            concat!(stringify!($Name), ": extension markers must strictly ascend"),
        );

        impl $crate::schema::Record for $Name {
            fn json_fields(&self, out: &mut Vec<(String, $crate::json::Json)>) {
                let Self { $($f,)* $($($e,)*)? } = self;
                $crate::schema::wire_fields!(json out;
                    [$($f ($($k)?) $(= $d)?;)*] [$($($e ($($ek)?) $m;)*)?]);
            }
            fn from_fields(doc: &$crate::json::Json) -> Result<Self, &'static str> {
                Ok($crate::schema::wire_fields!(parse doc [Self];
                    [$($f ($($k)?) $(= $d)?;)*] [$($($e ($($ek)?) $m;)*)?]))
            }
        }

        impl $crate::schema::Wire for $Name {
            const MIN_BYTES: usize = 0 $(+ <$ty as $crate::schema::Wire>::MIN_BYTES)*;
            fn to_json(&self) -> $crate::json::Json {
                let mut out = Vec::new();
                $crate::schema::Record::json_fields(self, &mut out);
                $crate::json::Json::Obj(out)
            }
            fn from_json(v: &$crate::json::Json) -> Option<Self> {
                $crate::schema::Record::from_fields(v).ok()
            }
            fn write(&self, w: &mut Vec<u8>) {
                let Self { $($f,)* $($($e,)*)? } = self;
                $crate::schema::wire_fields!(write w;
                    [$($f ($($k)?) $(= $d)?;)*] [$($($e ($($ek)?) $m;)*)?]);
            }
            fn read(
                r: &mut $crate::schema::Reader<'_>,
                at: &$crate::schema::Path<'_>,
            ) -> Result<Self, $crate::frame::FrameError> {
                Ok($crate::schema::wire_fields!(read r at [Self];
                    [$($f ($($k)?) $(= $d)?;)*] [$($($e ($($ek)?) $m;)*)?]))
            }
            fn check(&self) -> Result<(), &'static str> {
                let Self { $($f,)* $($($e,)*)? } = self;
                $crate::schema::wire_fields!(check;
                    [$($f ($($k)?) $(= $d)?;)*] [$($($e ($($ek)?) $m;)*)?]);
                $( $check(self)?; )?
                Ok(())
            }
        }
    };
}

/// Per-variant codegen for [`wire_enum!`]: a newtype variant delegates
/// to its struct's codec; a struct-like variant is normalized and shares
/// [`wire_fields!`] with the structs. Newtype variants take no `ext`
/// section — their extensions live in the struct's table.
macro_rules! wire_variant {
    (pat [[$($p:tt)*]] $x:ident ($T:ty)) => {
        $($p)*($x)
    };
    (id [] $x:ident ($T:ty)) => {
        &$x.id
    };
    (markers [] $x:ident ($T:ty)) => {
        &[]
    };
    (json [$out:ident] $x:ident ($T:ty)) => {
        $crate::schema::Record::json_fields($x, &mut $out)
    };
    (parse [$doc:ident [$($p:tt)*]] $x:ident ($T:ty)) => {
        $($p)*($crate::schema::Record::from_fields($doc)?)
    };
    (write [$w:ident] $x:ident ($T:ty)) => {
        $crate::schema::Wire::write($x, $w)
    };
    (read [$r:ident $at:ident [$($p:tt)*]] $x:ident ($T:ty)) => {
        $($p)*($crate::schema::Wire::read($r, &$at)?)
    };
    (check [] $x:ident ($T:ty)) => {
        $crate::schema::Wire::check($x)?
    };
    ($mode:ident [$($args:tt)*] $x:ident {
        $( $(#[$fm:meta])* $f:ident $(as $k:literal)?: $ty:ty $(= $d:expr)? ),* $(,)?
    } $( ext {
        $( $(#[$em:meta])* $e:ident $(as $ek:literal)?: $ety:ty = $m:tt ),* $(,)?
    } )?) => {
        $crate::schema::wire_fields!($mode $($args)*;
            [$($f ($($k)?) $(= $d)?;)*] [$($($e ($($ek)?) $m;)*)?])
    };
}

/// Declare a message enum: the enum itself, `id()`, and its
/// [`Message`] codec. Each variant names its v2 tag and v1 kind, and is
/// either a newtype over a [`wire_struct!`] or struct-like with its own
/// field table (same grammar, fields without `pub`).
///
/// ```text
/// pub enum Name as "noun" {
///     Variant(Struct) = tag "kind",
///     Variant { field: Type [= default], ... } [ext { ... }] = tag "kind",
/// }
/// ```
macro_rules! wire_enum {
    (@def [$($head:tt)*] [$($acc:tt)*]) => {
        $($head)* { $($acc)* }
    };
    (@def [$($head:tt)*] [$($acc:tt)*]
        $(#[$vm:meta])* $V:ident ($T:ty); $($rest:tt)*) => {
        $crate::schema::wire_enum!(@def [$($head)*] [$($acc)* $(#[$vm])* $V($T),] $($rest)*);
    };
    (@def [$($head:tt)*] [$($acc:tt)*]
        $(#[$vm:meta])* $V:ident {
            $( $(#[$fm:meta])* $f:ident $(as $k:literal)?: $ty:ty $(= $d:expr)? ),* $(,)?
        } $( ext {
            $( $(#[$em:meta])* $e:ident $(as $ek:literal)?: $ety:ty = $m:tt ),* $(,)?
        } )?; $($rest:tt)*) => {
        $crate::schema::wire_enum!(@def [$($head)*] [$($acc)*
            $(#[$vm])* $V { $( $(#[$fm])* $f: $ty, )* $($( $(#[$em])* $e: $ety, )*)? },
        ] $($rest)*);
    };
    (
        $(#[$meta:meta])*
        pub enum $Enum:ident as $noun:literal {
            $( $(#[$vm:meta])* $V:ident $body:tt $(ext $ext:tt)? = $tag:literal $kind:literal ),*
            $(,)?
        }
    ) => {
        $crate::schema::wire_enum!(@def [$(#[$meta])* pub enum $Enum] []
            $( $(#[$vm])* $V $body $(ext $ext)?; )*);

        const _: () = {
            $( assert!(
                $crate::schema::markers_ascend(
                    $crate::schema::wire_variant!(markers [] x $body $(ext $ext)?)),
                concat!(stringify!($Enum), "::", stringify!($V),
                        ": extension markers must strictly ascend"),
            ); )*
        };

        impl $Enum {
            /// The correlation id every message carries.
            #[allow(unused_variables)]
            pub fn id(&self) -> &str {
                match self {
                    $( $crate::schema::wire_variant!(pat [[Self::$V]] x $body $(ext $ext)?) =>
                        $crate::schema::wire_variant!(id [] x $body $(ext $ext)?), )*
                }
            }
        }

        impl $crate::schema::Message for $Enum {
            fn to_json(&self) -> $crate::json::Json {
                use $crate::json::Json;
                let v = Json::Num($crate::proto::PROTOCOL_VERSION as f64);
                let mut out = vec![("v".to_owned(), v)];
                match self {
                    $( $crate::schema::wire_variant!(pat [[Self::$V]] x $body $(ext $ext)?) => {
                        out.push(("kind".to_owned(), Json::Str($kind.to_owned())));
                        $crate::schema::wire_variant!(json [out] x $body $(ext $ext)?);
                    } )*
                }
                Json::Obj(out)
            }
            fn from_json(
                kind: &str,
                doc: &$crate::json::Json,
            ) -> Result<Self, Option<&'static str>> {
                Ok(match kind {
                    $( $kind => $crate::schema::wire_variant!(
                        parse [doc [Self::$V]] x $body $(ext $ext)?), )*
                    _ => return Err(None),
                })
            }
            fn write(&self, w: &mut Vec<u8>) {
                match self {
                    $( $crate::schema::wire_variant!(pat [[Self::$V]] x $body $(ext $ext)?) => {
                        w.push($tag);
                        $crate::schema::wire_variant!(write [w] x $body $(ext $ext)?);
                    } )*
                }
            }
            fn read(
                r: &mut $crate::schema::Reader<'_>,
            ) -> Result<Self, $crate::frame::FrameError> {
                use $crate::schema::Path;
                match r.u8(&Path::root(concat!($noun, " tag")))? {
                    $( $tag => {
                        let at = Path::root($kind);
                        let msg = $crate::schema::wire_variant!(
                            read [r at [Self::$V]] x $body $(ext $ext)?);
                        r.finish(&at)?;
                        Ok(msg)
                    } )*
                    other => Err($crate::frame::FrameError::Malformed(format!(
                        concat!("unknown ", $noun, " tag {}"), other))),
                }
            }
            fn check(&self) -> Result<(), &'static str> {
                match self {
                    $( $crate::schema::wire_variant!(pat [[Self::$V]] x $body $(ext $ext)?) => {
                        $crate::schema::wire_variant!(check [] x $body $(ext $ext)?);
                    } )*
                }
                Ok(())
            }
        }
    };
}

/// Declare a code enum: v1 carries its label, v2 its byte code.
macro_rules! wire_codes {
    (
        $(#[$meta:meta])*
        pub enum $Name:ident {
            $( $(#[$vm:meta])* $V:ident = $code:literal $label:literal ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $Name {
            $( $(#[$vm])* $V, )*
        }

        impl $Name {
            /// Stable wire label (the v1 JSON carries this).
            pub fn label(self) -> &'static str {
                match self {
                    $( Self::$V => $label, )*
                }
            }

            /// Parse a wire label.
            pub fn parse(s: &str) -> Option<Self> {
                match s {
                    $( $label => Some(Self::$V), )*
                    _ => None,
                }
            }

            /// Stable byte code (the v2 binary frames carry this).
            pub fn code(self) -> u8 {
                match self {
                    $( Self::$V => $code, )*
                }
            }

            /// Parse a byte code.
            pub fn from_code(b: u8) -> Option<Self> {
                match b {
                    $( $code => Some(Self::$V), )*
                    _ => None,
                }
            }
        }

        impl $crate::schema::Wire for $Name {
            const MIN_BYTES: usize = 1;
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(self.label().to_owned())
            }
            fn from_json(v: &$crate::json::Json) -> Option<Self> {
                v.as_str().and_then(Self::parse)
            }
            fn write(&self, w: &mut Vec<u8>) {
                w.push(self.code());
            }
            fn read(
                r: &mut $crate::schema::Reader<'_>,
                at: &$crate::schema::Path<'_>,
            ) -> Result<Self, $crate::frame::FrameError> {
                let b = r.u8(at)?;
                Self::from_code(b).ok_or_else(|| {
                    $crate::frame::FrameError::Malformed(format!("{at}: bad code {b}"))
                })
            }
        }
    };
}

pub(crate) use {
    wire_codes, wire_default, wire_enum, wire_fields, wire_key, wire_marker, wire_struct,
    wire_v1_field, wire_variant,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;
    use crate::proto::{
        CalibSpec, ErrorResponse, MapRequest, MultilevelSpec, RemapRequest, Request, Response,
        StatsResponse, TraceContext, TraceDumpResponse, WireTraceEvent, WireTrack,
    };

    #[test]
    fn extension_markers_must_strictly_ascend() {
        assert!(markers_ascend(&[]));
        assert!(markers_ascend(&[Some(1), Some(2)]));
        assert!(markers_ascend(&[None]));
        assert!(!markers_ascend(&[Some(2), Some(1)]));
        assert!(!markers_ascend(&[Some(1), Some(1)]));
        assert!(!markers_ascend(&[None, Some(1)]));
        assert!(!markers_ascend(&[Some(1), None]));
    }

    fn map_with(f: impl FnOnce(&mut MapRequest)) -> Request {
        let mut m = MapRequest::new("m", "src,dst,bytes,msgs\n0,1,1,1\n");
        f(&mut m);
        Request::Map(m)
    }

    /// Both decoders, on the encodings of the same request.
    fn decode_both(request: &Request) -> [Result<Request, ErrorResponse>; 2] {
        [
            Request::from_line(&request.to_line()),
            frame::decode_request_payload(&frame::request_payload(request)),
        ]
    }

    #[test]
    fn bounds_refuse_the_same_request_with_the_same_message_on_both_wires() {
        let cases = [
            (
                map_with(|m| m.calibration.noise_cv = -1.0),
                "calibration noise must be finite and >= 0",
            ),
            (
                map_with(|m| {
                    m.multilevel = Some(MultilevelSpec {
                        coarsen_cutoff: 0,
                        ..MultilevelSpec::default()
                    })
                }),
                "multilevel cutoff must be >= 1",
            ),
            (
                Request::Remap(RemapRequest {
                    calibration: CalibSpec {
                        loss_rate: 1.0,
                        ..CalibSpec::default()
                    },
                    ..RemapRequest::new("r", "src,dst,bytes,msgs\n", vec![0])
                }),
                "calibration loss must be in [0, 1)",
            ),
        ];
        for (request, message) in cases {
            for decoded in decode_both(&request) {
                let err = decoded.unwrap_err();
                assert_eq!(
                    (err.id.as_str(), err.message.as_str()),
                    (request.id(), message)
                );
            }
        }
    }

    #[test]
    fn v1_parse_defaults_ill_typed_fields_and_names_missing_required_ones() {
        let line = r#"{"v":1,"kind":"map","id":"a","pattern_csv":"p","seed":"x","ranks":-1}"#;
        let Request::Map(m) = Request::from_line(line).unwrap() else {
            panic!("not a map request");
        };
        assert_eq!(m, MapRequest::new("a", "p"));
        let err = Request::from_line(r#"{"v":1,"kind":"release","id":"a","lease":null}"#);
        assert_eq!(err.unwrap_err().message, r#"release request needs "lease""#);
        let err = Response::from_line(r#"{"v":1,"kind":"shutdown_response","id":"q"}"#);
        assert_eq!(err.unwrap_err(), r#"shutdown_response needs "draining""#);
    }

    #[test]
    fn v2_errors_name_the_full_field_path() {
        let bytes = frame::request_payload(&map_with(|_| {}));
        // Cut inside the calibration's noise field.
        let cut = bytes.len() - (8 + 8 + 1 + 1 + 1 + 1 + 1) - 4;
        let err = frame::decode_request_payload(&bytes[..cut]).unwrap_err();
        assert!(
            err.message.contains("map.calibration.noise needs 8 bytes"),
            "{}",
            err.message
        );
    }

    #[test]
    fn v2_extensions_are_read_once_each_in_marker_order() {
        let plain = frame::request_payload(&map_with(|_| {}));
        let both = frame::request_payload(&map_with(|m| {
            m.trace = Some(TraceContext::root(5));
            m.multilevel = Some(MultilevelSpec::default());
        }));
        let trace = &both[plain.len()..plain.len() + 18];
        let multilevel = &both[plain.len() + 18..];
        assert_eq!((trace[0], multilevel[0]), (1, 2));
        for bad in [
            [multilevel, trace].concat(),
            [trace, trace].concat(),
            vec![0],
        ] {
            let err = frame::decode_request_payload(&[plain.as_slice(), &bad].concat());
            assert!(err.unwrap_err().message.contains("extension marker"));
        }
        // A flag extension has no payload: the stats detail flag is its
        // marker byte alone, and any other trailing byte is refused.
        let stats = frame::request_payload(&Request::Stats {
            id: "s".into(),
            detail: false,
        });
        let decode =
            |tail: u8| frame::decode_request_payload(&[stats.as_slice(), &[tail]].concat());
        assert!(matches!(decode(1), Ok(Request::Stats { detail: true, .. })));
        assert!(decode(0).is_err());
    }

    #[test]
    fn hostile_list_counts_use_each_entry_type_floor() {
        // u32 + two empty strings; u32 + empty string + u8 + two f64s.
        assert_eq!(WireTrack::MIN_BYTES, 12);
        assert_eq!(WireTraceEvent::MIN_BYTES, 25);
        assert_eq!(<(u32, u64)>::MIN_BYTES, 12);
        let mut payload = Vec::new();
        StatsResponse::default().write(&mut payload);
        // A detail section declaring u32::MAX histograms.
        for field in [0u64, 0, 0] {
            field.write(&mut payload);
        }
        Vec::<usize>::new().write(&mut payload);
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = StatsResponse::read(&mut Reader::new(&payload), &Path::root("stats"));
        let Err(FrameError::Malformed(m)) = err else {
            panic!("expected Malformed, got {err:?}");
        };
        assert!(m.starts_with("stats.detail.hists: declared"), "{m}");
    }

    #[test]
    fn every_message_answers_its_correlation_id() {
        let requests = [
            map_with(|_| {}),
            Request::Release {
                id: "m".into(),
                lease: 1,
            },
            Request::Journal {
                id: "m".into(),
                key: "k".into(),
            },
            Request::Remap(RemapRequest::new("m", "p", vec![0])),
        ];
        assert!(requests.iter().all(|r| r.id() == "m"));
        let responses = [
            Response::Shutdown {
                id: "m".into(),
                draining: 0,
            },
            Response::Stats(StatsResponse {
                id: "m".into(),
                ..StatsResponse::default()
            }),
        ];
        assert!(responses.iter().all(|r| r.id() == "m"));
    }

    #[test]
    fn trace_dumps_that_fit_a_frame_are_left_alone() {
        let mut dump = TraceDumpResponse {
            id: "td".into(),
            dropped: 3,
            events: vec![WireTraceEvent::default(); 1000],
            ..TraceDumpResponse::default()
        };
        let before = dump.clone();
        dump.fit_frame();
        assert_eq!(dump, before);
    }

    #[test]
    fn paths_label_fields_with_dots() {
        let root = Path::root("map");
        let calibration = root.field("calibration");
        assert_eq!(
            calibration.field("probes").to_string(),
            "map.calibration.probes"
        );
    }
}
