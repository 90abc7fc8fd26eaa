// Field-list wire codec.
//
// Every payload struct lists its wire fields once, in wire order:
//
//   static auto fields(auto& m, auto&& f) {
//     return f(m.query_id, m.head, m.members, EpochTagTrailer{m.epoch_tag});
//   }
//
// encode(), decode() and decode_prefix() walk that list; no other code
// knows a field's offset. Little-endian fields: u8/u16/u32, double
// (IEEE-754 bits), std::vector<E> (u32 count, then the elements; u8
// and u32 elements are copied in bulk), nested structs with their own
// fields(), and the optional EpochTagTrailer. Decoding treats the
// payload as hostile: a truncated payload decodes to nullopt, a vector
// count is checked against the bytes left before anything is reserved,
// and trailing bytes are ignored.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "net/packet.h"

namespace icpda::proto {

inline constexpr std::uint8_t kEpochTagMarker = 0xE9;
inline constexpr std::size_t kEpochTagBytes = 5;  // marker + u32 tag

/// Freshness trailer (messages.h), always a format's last field: no
/// bytes for tag 0, else the marker and the tag. Decoded only when
/// exactly kEpochTagBytes remain.
template <typename Tag>
struct EpochTagTrailer {
  Tag& tag;
};
template <typename Tag>
EpochTagTrailer(Tag&) -> EpochTagTrailer<Tag>;

namespace codec {

template <typename... Ts>
struct TypeList {};

/// A fields() visitor that yields the field types.
struct FieldTypes {
  template <typename... Xs>
  TypeList<std::remove_cvref_t<Xs>...> operator()(Xs&&...) const {
    return {};
  }
};

template <typename T>
concept FieldList = requires(T& m) { T::fields(m, FieldTypes{}); };

template <typename T>
inline constexpr bool kIsVector = false;
template <typename E>
inline constexpr bool kIsVector<std::vector<E>> = true;
template <typename T>
inline constexpr bool kIsTrailer = false;
template <typename Tag>
inline constexpr bool kIsTrailer<EpochTagTrailer<Tag>> = true;
template <typename T>
inline constexpr bool kIsInt = std::is_unsigned_v<T>;
/// Vector elements copied with one memcpy.
template <typename E>
inline constexpr bool kBulk =
    kIsInt<E> && (sizeof(E) == 1 || std::endian::native == std::endian::little);

/// Field sizes of T in order; 0 marks a vector or the trailer.
template <typename T>
constexpr auto field_sizes();

/// Encoded size of every T, or 0 if it depends on the contents.
template <typename T>
constexpr std::size_t fixed_size() {
  if constexpr (kIsInt<T>) return sizeof(T);
  else if constexpr (std::is_same_v<T, double>) return 8;
  else if constexpr (kIsVector<T> || kIsTrailer<T>) return 0;
  else {
    std::size_t n = 0;
    for (const std::size_t s : field_sizes<T>()) {
      if (s == 0) return 0;
      n += s;
    }
    return n;
  }
}

template <typename T>
constexpr auto field_sizes() {
  return []<typename... Xs>(TypeList<Xs...>) {
    return std::array<std::size_t, sizeof...(Xs)>{fixed_size<Xs>()...};
  }(decltype(T::fields(std::declval<T&>(), FieldTypes{})){});
}

template <typename U>
std::uint8_t* store_le(std::uint8_t* out, U v) {
  for (std::size_t i = 0; i < sizeof(U); ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return out + sizeof(U);
}

template <typename U>
U load_le(const std::uint8_t* p) {
  U v = 0;
  for (std::size_t i = 0; i < sizeof(U); ++i) v = static_cast<U>(v | U{p[i]} << (8 * i));
  return v;
}

template <typename T>
std::size_t encoded_size(const T& v) {
  if constexpr (kIsVector<T>) return 4 + v.size() * fixed_size<typename T::value_type>();
  else if constexpr (kIsTrailer<T>) return v.tag != 0 ? kEpochTagBytes : 0;
  else if constexpr (fixed_size<T>() > 0) return fixed_size<T>();
  else return T::fields(v, [](const auto&... xs) { return (encoded_size(xs) + ...); });
}

template <typename T>
std::uint8_t* write(std::uint8_t* out, const T& v) {
  if constexpr (kIsInt<T>) {
    return store_le(out, v);
  } else if constexpr (std::is_same_v<T, double>) {
    return store_le(out, std::bit_cast<std::uint64_t>(v));
  } else if constexpr (kIsVector<T>) {
    static_assert(fixed_size<typename T::value_type>() > 0);
    out = store_le(out, static_cast<std::uint32_t>(v.size()));
    if constexpr (kBulk<typename T::value_type>) {
      const std::size_t n = v.size() * sizeof(typename T::value_type);
      if (n != 0) std::memcpy(out, v.data(), n);
      return out + n;
    } else {
      for (const auto& e : v) out = write(out, e);
      return out;
    }
  } else if constexpr (kIsTrailer<T>) {
    if (v.tag == 0) return out;
    *out = kEpochTagMarker;
    return store_le(out + 1, static_cast<std::uint32_t>(v.tag));
  } else {
    T::fields(v, [&out](const auto&... xs) { ((out = write(out, xs)), ...); });
    return out;
  }
}

/// Bounds-checked cursor: the first short read fails the decode and
/// leaves nothing more to read.
struct Reader {
  const std::uint8_t* at;
  const std::uint8_t* end;
  bool ok = true;

  [[nodiscard]] std::size_t remaining() const { return static_cast<std::size_t>(end - at); }
  const std::uint8_t* take(std::size_t n) {
    if (n > remaining()) {
      fail();
      return nullptr;
    }
    at += n;
    return at - n;
  }
  void fail() {
    ok = false;
    at = end;
  }
};

template <typename T>
void read(Reader& r, T&& field) {
  using U = std::remove_cvref_t<T>;
  if constexpr (kIsInt<U>) {
    if (const std::uint8_t* p = r.take(sizeof(U))) field = load_le<U>(p);
  } else if constexpr (std::is_same_v<U, double>) {
    if (const std::uint8_t* p = r.take(8)) field = std::bit_cast<double>(load_le<std::uint64_t>(p));
  } else if constexpr (kIsVector<U>) {
    using E = typename U::value_type;
    const std::uint8_t* p = r.take(4);
    const std::uint32_t n = p != nullptr ? load_le<std::uint32_t>(p) : 0;
    // A hostile count must fail cleanly, not reserve gigabytes.
    if (std::uint64_t{n} * fixed_size<E>() > r.remaining()) r.fail();
    if (!r.ok) return;
    if constexpr (kBulk<E>) {
      const std::uint8_t* src = r.take(n * sizeof(E));
      field.resize(n);
      if (n != 0) std::memcpy(field.data(), src, n * sizeof(E));
    } else {
      field.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) read(r, field.emplace_back());
    }
  } else if constexpr (kIsTrailer<U>) {
    const std::uint8_t* p = r.remaining() == kEpochTagBytes ? r.take(kEpochTagBytes) : nullptr;
    field.tag = p != nullptr && p[0] == kEpochTagMarker ? load_le<std::uint32_t>(p + 1) : 0;
  } else {
    U::fields(field, [&r](auto&&... xs) { (read(r, xs), ...); });
  }
}

}  // namespace codec

/// The wire bytes of `m`.
template <codec::FieldList T>
[[nodiscard]] net::Bytes encode(const T& m) {
  net::Bytes out(codec::encoded_size(m));
  codec::write(out.data(), m);
  return out;
}

/// `m` decoded from `b`, or nullopt if `b` is truncated or malformed.
template <codec::FieldList T>
[[nodiscard]] std::optional<T> decode(const net::Bytes& b) {
  std::optional<T> m(std::in_place);
  codec::Reader r{b.data(), b.data() + b.size()};
  codec::read(r, *m);
  if (!r.ok) m.reset();
  return m;
}

/// Byte offset of T's field K, or 0 if a field before it is not
/// fixed-width.
template <codec::FieldList T, std::size_t K>
[[nodiscard]] constexpr std::size_t field_offset() {
  std::size_t n = 0;
  for (std::size_t i = 0; i < K; ++i) {
    if (codec::field_sizes<T>()[i] == 0) return 0;
    n += codec::field_sizes<T>()[i];
  }
  return n;
}

/// Only T's first K fields, its fixed-width header, decoded from `b`
/// (the rest stay default), or nullopt if `b` is shorter than that
/// header. Allocates nothing: handlers peek every frame heard with it.
template <codec::FieldList T, std::size_t K>
[[nodiscard]] std::optional<T> decode_prefix(const net::Bytes& b) {
  static_assert(field_offset<T, K>() > 0, "a header holds fixed-width fields only");
  std::optional<T> m(std::in_place);
  codec::Reader r{b.data(), b.data() + b.size()};
  std::size_t i = 0;
  T::fields(*m, [&](auto&&... xs) { ((i++ < K ? codec::read(r, xs) : void()), ...); });
  if (!r.ok) m.reset();
  return m;
}

/// Re-encode the fixed-width `v` over bytes[offset, offset + its size)
/// of an existing encoding.
template <typename T>
void encode_at(net::Bytes& bytes, std::size_t offset, const T& v) {
  static_assert(codec::fixed_size<T>() > 0);
  codec::write(bytes.data() + offset, v);
}

/// Mixin deriving a payload's to_bytes()/from_bytes() from its fields().
template <typename Msg>
struct WireFormat {
  [[nodiscard]] net::Bytes to_bytes() const { return encode(static_cast<const Msg&>(*this)); }
  [[nodiscard]] static std::optional<Msg> from_bytes(const net::Bytes& b) {
    return decode<Msg>(b);
  }
};

}  // namespace icpda::proto
