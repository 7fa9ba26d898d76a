//! Section codecs: domain state ⇄ wire payloads.
//!
//! What travels through a snapshot is the *sampled* state only — the
//! social graph, web pages, latent expertise, questionnaire answers,
//! personas and the retained-document table. Compiled-in
//! constants (knowledge base, query workload) are regenerated at load and
//! cross-checked against fingerprints recorded in the `meta` section, so
//! a snapshot from a build with a different KB seed is refused instead of
//! silently mis-resolving entity ids.
//!
//! Every decoder validates id ranges *before* touching the replay
//! builders (whose indexing would panic on garbage) — the loader's
//! no-panic contract is enforced here, after the envelope checksums and
//! before any reconstruction.

use crate::crc::Crc64;
use crate::err::StoreError;
use crate::wire::*;
use rightcrowd_graph::{DocId, SocialGraph};
use rightcrowd_kb::KnowledgeBase;
use rightcrowd_synth::config::{PlatformPools, PlatformVolume};
use rightcrowd_synth::queries::ExpertiseNeed;
use rightcrowd_synth::{DatasetConfig, LatentExpertise, Persona, WebCorpus};
use rightcrowd_types::{
    ContainerId, Domain, Likert, PageId, PersonId, Platform, ResourceId, UserId,
};

/// Node counts recorded in `meta` and cross-checked against every decoded
/// section (also used to pre-size the replayed graph's arenas).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Census {
    /// Candidate persons.
    pub persons: usize,
    /// User profiles across all platforms.
    pub profiles: usize,
    /// Resources.
    pub resources: usize,
    /// Containers.
    pub containers: usize,
    /// Synthetic web pages.
    pub pages: usize,
    /// Retained (indexed) documents.
    pub retained: usize,
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

fn decode_platform(tag: u8) -> Result<Platform, StoreError> {
    Platform::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| corrupt(format!("invalid platform tag {tag}")))
}

fn decode_likert(raw: u8) -> Result<Likert, StoreError> {
    Likert::new(raw).ok_or_else(|| corrupt(format!("likert value {raw} outside 1..=7")))
}

fn check_id(kind: &str, raw: u32, bound: usize) -> Result<(), StoreError> {
    if (raw as usize) < bound {
        Ok(())
    } else {
        Err(corrupt(format!("{kind} id {raw} out of range (count {bound})")))
    }
}

/// Fingerprint of the compiled-in query workload: count plus a digest of
/// the texts in order.
fn workload_fingerprint(queries: &[ExpertiseNeed]) -> (u64, u64) {
    let mut digest = Crc64::new();
    for q in queries {
        digest.update(q.text.as_bytes());
        digest.update(b"\n");
    }
    (queries.len() as u64, digest.finish())
}

// ----- meta -------------------------------------------------------------

/// Encodes the dataset config, environment fingerprints and node census.
pub fn encode_meta(
    config: &DatasetConfig,
    kb: &KnowledgeBase,
    queries: &[ExpertiseNeed],
    census: Census,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    put_u64(&mut buf, config.seed);
    put_len(&mut buf, config.candidates);
    for v in &config.volumes {
        for n in [
            v.own_posts,
            v.foreign_wall_posts,
            v.annotations,
            v.memberships,
            v.followed_accounts,
            v.friends,
        ] {
            put_len(&mut buf, n);
        }
    }
    for p in &config.pools {
        for n in [
            p.containers_per_domain,
            p.posts_per_container,
            p.celebrities_per_domain,
            p.posts_per_celebrity,
            p.posts_per_friend,
        ] {
            put_len(&mut buf, n);
        }
    }
    for rate in [
        config.english_rate,
        config.url_rate,
        config.silent_rate,
        config.flagship_rate,
        config.profile_location_leak,
    ] {
        put_f64(&mut buf, rate);
    }

    put_len(&mut buf, kb.len());
    put_len(&mut buf, kb.anchor_count());
    put_len(&mut buf, kb.max_anchor_words());
    let (qn, qcrc) = workload_fingerprint(queries);
    put_u64(&mut buf, qn);
    put_u64(&mut buf, qcrc);

    for n in
        [census.persons, census.profiles, census.resources, census.containers, census.pages, census.retained]
    {
        put_len(&mut buf, n);
    }
    buf
}

/// Decodes `meta` and verifies the KB / workload fingerprints against the
/// regenerated constants of *this* build.
pub fn decode_meta(
    payload: &[u8],
    kb: &KnowledgeBase,
    queries: &[ExpertiseNeed],
) -> Result<(DatasetConfig, Census), StoreError> {
    let mut c = Cursor::new(payload);
    let seed = c.u64()?;
    let candidates = c.usize()?;

    let mut volume = || -> Result<PlatformVolume, StoreError> {
        Ok(PlatformVolume {
            own_posts: c.usize()?,
            foreign_wall_posts: c.usize()?,
            annotations: c.usize()?,
            memberships: c.usize()?,
            followed_accounts: c.usize()?,
            friends: c.usize()?,
        })
    };
    let volumes = [volume()?, volume()?, volume()?];
    let mut pool = || -> Result<PlatformPools, StoreError> {
        Ok(PlatformPools {
            containers_per_domain: c.usize()?,
            posts_per_container: c.usize()?,
            celebrities_per_domain: c.usize()?,
            posts_per_celebrity: c.usize()?,
            posts_per_friend: c.usize()?,
        })
    };
    let pools = [pool()?, pool()?, pool()?];
    let english_rate = c.f64()?;
    let url_rate = c.f64()?;
    let silent_rate = c.f64()?;
    let flagship_rate = c.f64()?;
    let profile_location_leak = c.f64()?;
    for rate in [english_rate, url_rate, silent_rate, flagship_rate, profile_location_leak] {
        if !rate.is_finite() {
            return Err(corrupt("non-finite rate in dataset config"));
        }
    }

    let (kb_len, kb_anchors, kb_words) = (c.usize()?, c.usize()?, c.usize()?);
    if (kb_len, kb_anchors, kb_words) != (kb.len(), kb.anchor_count(), kb.max_anchor_words()) {
        return Err(corrupt(format!(
            "knowledge-base fingerprint mismatch: snapshot was built against \
             ({kb_len} entities, {kb_anchors} anchors), this build has \
             ({} entities, {} anchors)",
            kb.len(),
            kb.anchor_count()
        )));
    }
    let (qn, qcrc) = (c.u64()?, c.u64()?);
    if (qn, qcrc) != workload_fingerprint(queries) {
        return Err(corrupt(
            "query-workload fingerprint mismatch: snapshot was built against a different workload",
        ));
    }

    let census = Census {
        persons: c.usize()?,
        profiles: c.usize()?,
        resources: c.usize()?,
        containers: c.usize()?,
        pages: c.usize()?,
        retained: c.usize()?,
    };
    c.finish("meta")?;

    let config = DatasetConfig {
        seed,
        candidates,
        volumes,
        pools,
        english_rate,
        url_rate,
        silent_rate,
        flagship_rate,
        profile_location_leak,
    };
    Ok((config, census))
}

// ----- graph ------------------------------------------------------------

/// Encodes the social graph: node arenas in id order, then the per-user
/// relationship lists (`add_resource` rebuilds created/owned/contains
/// adjacency on replay, so only annotation/membership/follow edges need
/// their own arrays).
pub fn encode_graph(graph: &SocialGraph) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 << 16);
    put_len(&mut buf, graph.persons().len());
    for p in graph.persons() {
        put_str(&mut buf, &p.name);
    }
    put_len(&mut buf, graph.profiles().len());
    for p in graph.profiles() {
        put_u8(&mut buf, p.platform.index() as u8);
        put_str(&mut buf, &p.name);
        put_str(&mut buf, &p.text);
        put_opt_u32(&mut buf, p.person.map(|id| id.0));
        put_len(&mut buf, p.links.len());
        for l in &p.links {
            put_u32(&mut buf, l.0);
        }
    }
    put_len(&mut buf, graph.containers().len());
    for c in graph.containers() {
        put_u8(&mut buf, c.platform.index() as u8);
        put_str(&mut buf, &c.text);
        put_len(&mut buf, c.links.len());
        for l in &c.links {
            put_u32(&mut buf, l.0);
        }
    }
    put_len(&mut buf, graph.resources().len());
    for r in graph.resources() {
        put_u8(&mut buf, r.platform.index() as u8);
        put_str(&mut buf, &r.text);
        put_opt_u32(&mut buf, r.creator.map(|id| id.0));
        put_opt_u32(&mut buf, r.owner.map(|id| id.0));
        put_opt_u32(&mut buf, r.container.map(|id| id.0));
        put_len(&mut buf, r.links.len());
        for l in &r.links {
            put_u32(&mut buf, l.0);
        }
    }
    for p in graph.profiles() {
        let u = p.id;
        let annotated: Vec<u32> = graph.annotated_by(u).iter().map(|r| r.0).collect();
        put_u32s(&mut buf, &annotated);
        let memberships: Vec<u32> = graph.memberships(u).iter().map(|m| m.0).collect();
        put_u32s(&mut buf, &memberships);
        let follows: Vec<u32> = graph.follows(u).iter().map(|f| f.0).collect();
        put_u32s(&mut buf, &follows);
    }
    buf
}

/// Decodes and replays the graph through the pre-sized builder API. Every
/// id is range-checked before any builder call, so hostile payloads fail
/// with [`StoreError::Corrupt`] instead of an index panic.
pub fn decode_graph(payload: &[u8], census: Census) -> Result<SocialGraph, StoreError> {
    let mut c = Cursor::new(payload);

    let n_persons = c.len(8)?;
    if n_persons != census.persons {
        return Err(corrupt(format!(
            "graph has {n_persons} persons but the census says {}",
            census.persons
        )));
    }
    let mut graph =
        SocialGraph::with_capacity(census.persons, census.profiles, census.resources, census.containers);
    for _ in 0..n_persons {
        let name = c.str()?;
        graph.add_person(&name);
    }

    let n_profiles = c.len(8)?;
    if n_profiles != census.profiles {
        return Err(corrupt("graph profile count disagrees with the census"));
    }
    for _ in 0..n_profiles {
        let platform = decode_platform(c.u8()?)?;
        let name = c.str()?;
        let text = c.str()?;
        let person = c.opt_u32()?;
        if let Some(p) = person {
            check_id("person", p, census.persons)?;
        }
        let n_links = c.len(4)?;
        let mut links = Vec::with_capacity(n_links);
        for _ in 0..n_links {
            let l = c.u32()?;
            check_id("page", l, census.pages)?;
            links.push(PageId::new(l));
        }
        graph.add_profile(platform, &name, &text, person.map(PersonId::new), links);
    }

    let n_containers = c.len(8)?;
    if n_containers != census.containers {
        return Err(corrupt("graph container count disagrees with the census"));
    }
    for _ in 0..n_containers {
        let platform = decode_platform(c.u8()?)?;
        let text = c.str()?;
        let n_links = c.len(4)?;
        let mut links = Vec::with_capacity(n_links);
        for _ in 0..n_links {
            let l = c.u32()?;
            check_id("page", l, census.pages)?;
            links.push(PageId::new(l));
        }
        graph.add_container(platform, &text, links);
    }

    let n_resources = c.len(8)?;
    if n_resources != census.resources {
        return Err(corrupt("graph resource count disagrees with the census"));
    }
    for _ in 0..n_resources {
        let platform = decode_platform(c.u8()?)?;
        let text = c.str()?;
        let creator = c.opt_u32()?;
        let owner = c.opt_u32()?;
        let container = c.opt_u32()?;
        for u in [creator, owner].into_iter().flatten() {
            check_id("profile", u, census.profiles)?;
        }
        if let Some(k) = container {
            check_id("container", k, census.containers)?;
        }
        let n_links = c.len(4)?;
        let mut links = Vec::with_capacity(n_links);
        for _ in 0..n_links {
            let l = c.u32()?;
            check_id("page", l, census.pages)?;
            links.push(PageId::new(l));
        }
        graph.add_resource(
            platform,
            &text,
            creator.map(UserId::new),
            owner.map(UserId::new),
            container.map(ContainerId::new),
            links,
        );
    }

    for u in 0..n_profiles {
        let user = UserId::new(u as u32);
        for r in c.u32s()? {
            check_id("resource", r, census.resources)?;
            graph.add_annotation(user, ResourceId::new(r));
        }
        for m in c.u32s()? {
            check_id("container", m, census.containers)?;
            graph.add_membership(user, ContainerId::new(m));
        }
        for f in c.u32s()? {
            check_id("profile", f, census.profiles)?;
            graph.add_follow(user, UserId::new(f));
        }
    }
    c.finish("graph")?;
    graph.finalize();
    Ok(graph)
}

// ----- web --------------------------------------------------------------

/// Encodes the synthetic web corpus.
pub fn encode_web(web: &WebCorpus) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 << 14);
    put_len(&mut buf, web.len());
    for i in 0..web.len() {
        put_str(&mut buf, web.text(PageId::new(i as u32)));
    }
    buf
}

/// Decodes the web corpus.
pub fn decode_web(payload: &[u8], census: Census) -> Result<WebCorpus, StoreError> {
    let mut c = Cursor::new(payload);
    let n = c.len(8)?;
    if n != census.pages {
        return Err(corrupt(format!("web has {n} pages but the census says {}", census.pages)));
    }
    let mut web = WebCorpus::new();
    for _ in 0..n {
        let text = c.str()?;
        web.add_page(text);
    }
    c.finish("web")?;
    Ok(web)
}

// ----- truth ------------------------------------------------------------

/// Encodes latent expertise, questionnaire answers and personas.
pub fn encode_truth(
    latent: &LatentExpertise,
    answers: &[Vec<Likert>],
    personas: &[Persona],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 << 12);
    put_len(&mut buf, latent.levels().len());
    for row in latent.levels() {
        for l in row {
            put_u8(&mut buf, l.value());
        }
    }
    put_len(&mut buf, answers.len());
    for row in answers {
        put_len(&mut buf, row.len());
        for a in row {
            put_u8(&mut buf, a.value());
        }
    }
    put_len(&mut buf, personas.len());
    for p in personas {
        put_u32(&mut buf, p.person.0);
        put_f64(&mut buf, p.activity);
        put_u8(&mut buf, p.silent as u8);
        put_u8(&mut buf, p.flagship as u8);
        for e in p.expression {
            put_f64(&mut buf, e);
        }
    }
    buf
}

/// Decodes the truth section. Answer rows are checked against the
/// workload size *here* because `GroundTruth::derive` asserts it.
#[allow(clippy::type_complexity)]
pub fn decode_truth(
    payload: &[u8],
    census: Census,
    query_count: usize,
) -> Result<(LatentExpertise, Vec<Vec<Likert>>, Vec<Persona>), StoreError> {
    let mut c = Cursor::new(payload);

    let n_latent = c.len(Domain::COUNT)?;
    if n_latent != census.persons {
        return Err(corrupt("latent-expertise population disagrees with the census"));
    }
    let mut levels = Vec::with_capacity(n_latent);
    for _ in 0..n_latent {
        let mut row = [Likert::clamped(1); Domain::COUNT];
        for slot in row.iter_mut() {
            *slot = decode_likert(c.u8()?)?;
        }
        levels.push(row);
    }

    let n_answers = c.len(8)?;
    if n_answers != census.persons {
        return Err(corrupt("questionnaire population disagrees with the census"));
    }
    let mut answers = Vec::with_capacity(n_answers);
    for _ in 0..n_answers {
        let row_len = c.len(1)?;
        if row_len != query_count {
            return Err(corrupt(format!(
                "questionnaire row has {row_len} answers; the workload has {query_count} queries"
            )));
        }
        let mut row = Vec::with_capacity(row_len);
        for _ in 0..row_len {
            row.push(decode_likert(c.u8()?)?);
        }
        answers.push(row);
    }

    let n_personas = c.len(4 + 8 + 2 + 8 * Domain::COUNT)?;
    if n_personas != census.persons {
        return Err(corrupt("persona population disagrees with the census"));
    }
    let mut personas = Vec::with_capacity(n_personas);
    for _ in 0..n_personas {
        let person = c.u32()?;
        check_id("person", person, census.persons)?;
        let activity = c.f64()?;
        let silent = match c.u8()? {
            0 => false,
            1 => true,
            tag => return Err(corrupt(format!("invalid bool tag {tag}"))),
        };
        let flagship = match c.u8()? {
            0 => false,
            1 => true,
            tag => return Err(corrupt(format!("invalid bool tag {tag}"))),
        };
        let mut expression = [0.0f64; Domain::COUNT];
        for slot in expression.iter_mut() {
            *slot = c.f64()?;
        }
        if !activity.is_finite() || expression.iter().any(|e| !e.is_finite()) {
            return Err(corrupt("non-finite persona parameter"));
        }
        personas.push(Persona { person: PersonId::new(person), activity, silent, flagship, expression });
    }
    c.finish("truth")?;
    Ok((LatentExpertise::from_levels(levels), answers, personas))
}

// ----- corpus -----------------------------------------------------------

/// Encodes the retained-document table, drop count and per-document
/// lengths.
pub fn encode_corpus(docs: &[DocId], dropped: usize, doc_lens: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + docs.len() * 5 + doc_lens.len() * 4);
    put_len(&mut buf, dropped);
    put_len(&mut buf, docs.len());
    for d in docs {
        match d {
            DocId::Profile(u) => {
                put_u8(&mut buf, 0);
                put_u32(&mut buf, u.0);
            }
            DocId::Res(r) => {
                put_u8(&mut buf, 1);
                put_u32(&mut buf, r.0);
            }
            DocId::Cont(k) => {
                put_u8(&mut buf, 2);
                put_u32(&mut buf, k.0);
            }
        }
    }
    put_u32s(&mut buf, doc_lens);
    buf
}

/// Decodes the corpus section.
pub fn decode_corpus(
    payload: &[u8],
    census: Census,
) -> Result<(Vec<DocId>, usize, Vec<u32>), StoreError> {
    let mut c = Cursor::new(payload);
    let dropped = c.usize()?;
    let n = c.len(5)?;
    if n != census.retained {
        return Err(corrupt(format!(
            "corpus retains {n} documents but the census says {}",
            census.retained
        )));
    }
    let mut docs = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = c.u8()?;
        let raw = c.u32()?;
        let doc = match tag {
            0 => {
                check_id("profile", raw, census.profiles)?;
                DocId::Profile(UserId::new(raw))
            }
            1 => {
                check_id("resource", raw, census.resources)?;
                DocId::Res(ResourceId::new(raw))
            }
            2 => {
                check_id("container", raw, census.containers)?;
                DocId::Cont(ContainerId::new(raw))
            }
            _ => return Err(corrupt(format!("invalid document tag {tag}"))),
        };
        docs.push(doc);
    }
    let doc_lens = c.u32s()?;
    if doc_lens.len() != n {
        return Err(corrupt("doc_lens length disagrees with the document table"));
    }
    c.finish("corpus")?;
    Ok((docs, dropped, doc_lens))
}
